package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/hpcbench/beff/internal/obs"
	"github.com/hpcbench/beff/internal/store"
)

// DefaultCacheDir is where commands keep their result cache.
const DefaultCacheDir = ".beffcache"

// codeVersion salts every cache key. Bump it whenever a change to the
// simulator or the benchmarks alters results: old entries then miss by
// construction instead of serving stale protocols.
const codeVersion = "beff-sim-v1"

// Cache is a content-addressed result store: SHA-256 of (code-version
// salt, canonical-JSON fingerprint) names an entry, kept in the
// embedded segment-log store (internal/store) in the cache directory.
// Safe for concurrent use by sweep workers; entries are immutable for
// a given key.
type Cache struct {
	salt     string
	st       *store.Store
	readOnly bool // another process holds the store's writer lock

	// Swallowed persistence failures (including every write a read-only
	// cache skips); nil until Instrument, and a nil counter is a no-op.
	errs *obs.Counter
}

// OpenCache creates dir (if needed) and opens the cache's store there.
// An empty dir means DefaultCacheDir. When another process — beffd, or
// a concurrent sweep — holds the store's writer lock, the cache opens
// read-only instead: it serves hits from the entries present at open
// and skips persisting new ones, so it never blocks a sweep. Any other
// failure is returned.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		dir = DefaultCacheDir
	}
	st, err := store.Open(dir, store.Options{})
	readOnly := errors.Is(err, store.ErrLocked)
	if readOnly {
		st, err = store.Open(dir, store.Options{ReadOnly: true})
	}
	if err != nil {
		return nil, fmt.Errorf("runner: open cache: %w", err)
	}
	return &Cache{salt: codeVersion, st: st, readOnly: readOnly}, nil
}

// Dir reports the cache's root directory.
func (c *Cache) Dir() string { return c.st.Dir() }

// ReadOnly reports whether the cache opened read-only because another
// process holds the store's writer lock.
func (c *Cache) ReadOnly() bool { return c.readOnly }

// Store exposes the underlying segment store for inspection tools.
func (c *Cache) Store() *store.Store { return c.st }

// Close releases the store's writer lock and file handles. A nil cache
// has nothing to release.
func (c *Cache) Close() error {
	if c == nil {
		return nil
	}
	return c.st.Close()
}

// Instrument attaches observability: the swallowed-persistence-failure
// counter and the full store_* instrument set.
func (c *Cache) Instrument(reg *obs.Registry) {
	if c == nil {
		return
	}
	c.errs = reg.Counter("runner_cache_store_errors_total")
	c.st.SetMetrics(&store.Metrics{
		Puts:                reg.Counter("store_puts_total"),
		Gets:                reg.Counter("store_gets_total"),
		GetMisses:           reg.Counter("store_get_misses_total"),
		Deletes:             reg.Counter("store_deletes_total"),
		Compactions:         reg.Counter("store_compactions_total"),
		ReclaimedBytes:      reg.Counter("store_compaction_bytes_reclaimed_total"),
		RecoveryTruncations: reg.Counter("store_recovery_truncations_total"),
		Segments:            reg.Gauge("store_segments"),
		LiveEntries:         reg.Gauge("store_entries_live"),
		LiveBytes:           reg.Gauge("store_bytes_live"),
		DeadBytes:           reg.Gauge("store_bytes_dead"),
	})
}

// withSalt returns a copy of the cache keyed under a different code
// version, sharing the store. Test hook for salt invalidation.
func (c *Cache) withSalt(salt string) *Cache {
	cp := *c
	cp.salt = salt
	return &cp
}

// keyFor hashes a fingerprint into the entry name.
func (c *Cache) keyFor(fingerprint any) (string, error) {
	return fingerprintKey(c.salt, fingerprint)
}

// FingerprintKey reports the content-addressed identity of a cell
// fingerprint under the current code version — the same hex SHA-256
// that names the fingerprint's cache entry. The service layer dedupes
// in-flight work by this key, so two requests share an execution
// exactly when they would share a cache entry.
func FingerprintKey(fingerprint any) (string, error) {
	return fingerprintKey(codeVersion, fingerprint)
}

// fingerprintKey hashes (salt, canonical JSON fingerprint).
// encoding/json is canonical enough for this: struct fields marshal
// in declaration order and map keys are sorted.
func fingerprintKey(salt string, fingerprint any) (string, error) {
	fp, err := json.Marshal(fingerprint)
	if err != nil {
		return "", fmt.Errorf("runner: fingerprint not hashable: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(salt))
	h.Write([]byte{'\n'})
	h.Write(fp)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// entry is the stored document. Key and Fingerprint are for humans
// inspecting the cache; only Value is read back. Older versions also
// kept each entry as a flat file of the same bytes (see MigrateFlat).
type entry struct {
	Key         string          `json:"key"`
	Fingerprint json.RawMessage `json:"fingerprint"`
	Value       json.RawMessage `json:"value"`
}

// entryValue unpacks a stored entry document's value. Any failure —
// truncated or corrupted JSON, a missing value — reports false.
func entryValue(data []byte) (json.RawMessage, bool) {
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, false
	}
	// A JSON null would "unmarshal" successfully into a pointer target
	// by setting it to nil — a poisoned hit. Treat it as the corruption
	// it is.
	return e.Value, len(e.Value) > 0 && string(e.Value) != "null"
}

// decodeEntry unpacks a stored entry document into the pointer `into`.
// Any failure — a damaged document, value shape mismatch — reports
// false so the caller treats it as a miss and recomputes.
func decodeEntry(data []byte, into any) bool {
	v, ok := entryValue(data)
	return ok && json.Unmarshal(v, into) == nil
}

// load reads an entry into the pointer `into`, reporting a miss on any
// failure so the caller recomputes (the subsequent store repairs the
// entry).
func (c *Cache) load(key string, into any) bool {
	data, ok, err := c.st.Get(key)
	return err == nil && ok && decodeEntry(data, into)
}

// store writes an entry. Failures — including the ErrReadOnly of a
// read-only cache — are swallowed (and counted, once instrumented): a
// cache that cannot persist degrades to recomputation, it never fails
// the sweep.
func (c *Cache) store(key, cellKey string, fingerprint, value any) {
	val, err := json.Marshal(value)
	if err != nil {
		return
	}
	fp, err := json.Marshal(fingerprint)
	if err != nil {
		return
	}
	data, err := json.MarshalIndent(entry{Key: cellKey, Fingerprint: fp, Value: val}, "", " ")
	if err != nil {
		return
	}
	if err := c.st.Put(key, data); err != nil {
		c.errs.Inc()
	}
}

// FlatEntries lists the flat cache files older versions left in dir,
// one <64 hex chars>.json file per entry, in name order.
func FlatEntries(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, ent := range ents {
		name := ent.Name()
		stem, ok := strings.CutSuffix(name, ".json")
		if ent.IsDir() || !ok || len(stem) != 64 || strings.Trim(stem, "0123456789abcdef") != "" {
			continue
		}
		out = append(out, name)
	}
	return out
}

// MigrateFlat moves the flat entries FlatEntries finds in st's
// directory into st, verbatim — the flat file and the stored document
// are the same bytes — removing each file once stored. Files that
// cannot be read or do not hold a valid entry stay in place and are
// returned in skipped. A failed Put stops the migration.
func MigrateFlat(st *store.Store) (moved int, skipped []string, err error) {
	for _, name := range FlatEntries(st.Dir()) {
		path := filepath.Join(st.Dir(), name)
		data, err := os.ReadFile(path)
		if _, ok := entryValue(data); err != nil || !ok {
			skipped = append(skipped, name)
			continue
		}
		if err := st.Put(strings.TrimSuffix(name, ".json"), data); err != nil {
			return moved, skipped, fmt.Errorf("runner: migrate %s: %w", name, err)
		}
		os.Remove(path)
		moved++
	}
	return moved, skipped, nil
}
