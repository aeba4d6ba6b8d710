package runner

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/hpcbench/beff/internal/obs"
	"github.com/hpcbench/beff/internal/store"
)

// Tests for the store-backed cache: offline migration from the flat
// layout older versions wrote, the read-only open beside a lock
// holder, recovery from torn writes, and write races.

// exportFlat writes every entry of c into dir as the flat layout older
// versions kept: one <key>.json file holding the entry document.
func exportFlat(t *testing.T, c *Cache, dir string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	err := c.Store().Scan(func(key string, doc []byte) error {
		return os.WriteFile(filepath.Join(dir, key+".json"), doc, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// openStore opens dir's store as the writer, closed with the test.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestMigrateFlat(t *testing.T) {
	seed := openTestCache(t)
	var runs atomic.Int32
	cells := make([]Cell[int], 10)
	for i := range cells {
		cells[i] = countingCell(&runs, fp{Machine: "legacy", Procs: i}, i)
	}
	Sweep(cells, Options{Cache: seed})
	if runs.Load() != 10 {
		t.Fatalf("seed runs = %d", runs.Load())
	}
	dir := filepath.Join(t.TempDir(), "flat")
	exportFlat(t, seed, dir)
	// A damaged entry is skipped and kept; a file that is not an entry
	// name is not touched at all.
	damaged := filepath.Join(dir, "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff.json")
	notes := filepath.Join(dir, "notes.json")
	for _, p := range []string{damaged, notes} {
		if err := os.WriteFile(p, []byte("{torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st := openStore(t, dir)
	moved, skipped, err := MigrateFlat(st)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 10 || len(skipped) != 1 || skipped[0] != filepath.Base(damaged) {
		t.Fatalf("migrated %d, skipped %v", moved, skipped)
	}
	if left := FlatEntries(dir); len(left) != 1 {
		t.Fatalf("flat entries left after migration: %v", left)
	}
	if _, err := os.Stat(notes); err != nil {
		t.Fatalf("non-entry file disturbed: %v", err)
	}
	st.Close()

	// Every key now hits in the store, with no recompute, and the
	// migrated entries survive a reopen.
	for pass := 0; pass < 2; pass++ {
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		res := Sweep(cells, Options{Cache: c})
		c.Close()
		for i, r := range res {
			if !r.Cached || r.Value != i {
				t.Fatalf("pass %d: cell %d not served from migrated entries: %+v", pass, i, r)
			}
		}
	}
	if runs.Load() != 10 {
		t.Fatalf("migration recomputed: runs = %d", runs.Load())
	}
}

func TestMigrationPreservesExactValueBytes(t *testing.T) {
	// The golden-corpus guarantee: a migrated entry is the flat file's
	// bytes verbatim, so its decoded value is identical too.
	type result struct {
		Protocol string    `json:"protocol"`
		Points   []float64 `json:"points"`
	}
	seed := openTestCache(t)
	fingerprint := fp{Machine: "golden", Procs: 16}
	want := result{Protocol: "rendezvous", Points: []float64{1.5, 2.25, 1e-9}}
	key, err := seed.keyFor(fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	seed.store(key, "golden-cell", fingerprint, want)
	dir := filepath.Join(t.TempDir(), "flat")
	exportFlat(t, seed, dir)
	flat, err := os.ReadFile(filepath.Join(dir, key+".json"))
	if err != nil {
		t.Fatal(err)
	}

	st := openStore(t, dir)
	if _, _, err := MigrateFlat(st); err != nil {
		t.Fatal(err)
	}
	doc, ok, err := st.Get(key)
	if err != nil || !ok || string(doc) != string(flat) {
		t.Fatalf("migrated document differs from the flat file (ok=%v, err=%v)", ok, err)
	}
	st.Close()

	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var via result
	if !c.load(key, &via) {
		t.Fatal("migrated entry missed")
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(via)
	if string(a) != string(b) {
		t.Fatalf("value changed across migration:\nflat:  %s\nstore: %s", a, b)
	}
}

func TestOpenCacheCollectsStaleTempFiles(t *testing.T) {
	// seg-*.tmp is an uncommitted compaction output. Only the store,
	// under its writer lock, knows no compactor still owns it: a
	// writable open reaps it, a read-only open beside a lock holder
	// must leave it alone.
	for _, readOnly := range []bool{false, true} {
		name := "store"
		if readOnly {
			name = "read-only"
		}
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "cache")
			if readOnly {
				holder, err := OpenCache(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer holder.Close()
			}
			segTmp := filepath.Join(dir, "seg-00000009.cmp.tmp")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(segTmp, []byte("merge in progress"), 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := OpenCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if c.ReadOnly() != readOnly {
				t.Fatalf("cache read-only = %v, want %v", c.ReadOnly(), readOnly)
			}
			_, err = os.Stat(segTmp)
			if reaped := os.IsNotExist(err); reaped == readOnly {
				t.Fatalf("temp file reaped = %v on a read-only = %v open (stat: %v)", reaped, readOnly, err)
			}
		})
	}
}

func TestStorePoisonedEntryRecomputedAndRepaired(t *testing.T) {
	cache := openTestCache(t)
	var runs atomic.Int32
	cell := countingCell(&runs, fp{Machine: "poisoned", Procs: 3}, 21)
	Sweep([]Cell[int]{cell}, Options{Cache: cache})
	key, err := cache.keyFor(cell.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	for _, poison := range []string{
		"{truncated",
		`{"key":"x","fingerprint":{},"value":null}`,
		`{"key":"x","value":"not an int"}`,
		"",
	} {
		// A partial or corrupt write inside the store: the entry document
		// is damaged even though the record framing is intact.
		if err := cache.Store().Put(key, []byte(poison)); err != nil {
			t.Fatal(err)
		}
		before := runs.Load()
		res := Sweep([]Cell[int]{cell}, Options{Cache: cache})
		if res[0].Cached || res[0].Err != nil || res[0].Value != 21 {
			t.Fatalf("poisoned entry %q served: %+v", poison, res[0])
		}
		if runs.Load() != before+1 {
			t.Fatalf("poisoned entry %q: body not re-invoked", poison)
		}
		res = Sweep([]Cell[int]{cell}, Options{Cache: cache})
		if !res[0].Cached || res[0].Value != 21 {
			t.Fatalf("entry not repaired after poison %q: %+v", poison, res[0])
		}
	}
}

func TestConcurrentSameKeyWriters(t *testing.T) {
	// Sweep workers deduplicate in-flight work, but nothing stops two
	// processes' worth of goroutines racing store() on one key. Last
	// write wins; no torn reads; no errors surface. A read-only cache
	// beside the writer skips every write and counts each skip.
	dir := filepath.Join(t.TempDir(), "cache")
	writer, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	readOnly, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer readOnly.Close()
	for _, tc := range []struct {
		name      string
		c         *Cache
		wantSkips int64
	}{
		{"store", writer, 0},
		{"read-only", readOnly, 8 * 50},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.c
			reg := obs.New()
			c.Instrument(reg)
			fingerprint := fp{Machine: "race", Procs: 1}
			key, err := c.keyFor(fingerprint)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						c.store(key, "race-cell", fingerprint, 42)
						var got int
						if c.load(key, &got) && got != 42 {
							t.Errorf("torn read: %d", got)
							return
						}
					}
				}()
			}
			wg.Wait()
			if got := reg.Counter("runner_cache_store_errors_total").Value(); got != tc.wantSkips {
				t.Fatalf("store errors = %d, want %d", got, tc.wantSkips)
			}
			var got int
			if hit := c.load(key, &got); hit != (tc.wantSkips == 0) || (hit && got != 42) {
				t.Fatalf("final load: hit=%v value=%d", hit, got)
			}
		})
	}
}

func TestStoreErrorsCounterOnClosedBackend(t *testing.T) {
	// Persistence failures are swallowed but counted. Closing the store
	// out from under the cache makes every Put fail deterministically.
	c, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	c.Instrument(reg)
	c.Store().Close()
	var runs atomic.Int32
	cell := countingCell(&runs, fp{Machine: "err", Procs: 1}, 5)
	res := Sweep([]Cell[int]{cell}, Options{Cache: c})
	if res[0].Err != nil || res[0].Value != 5 {
		t.Fatalf("persistence failure leaked into the result: %+v", res[0])
	}
	if got := reg.Counter("runner_cache_store_errors_total").Value(); got == 0 {
		t.Fatal("swallowed store failure not counted")
	}
}

func TestLoadAfterTornStoreWrite(t *testing.T) {
	// A reader must never see a half-written entry as a hit: a segment
	// torn mid-record (a writer that crashed during the append) is
	// truncated back to its last whole record on open, and the entry
	// misses.
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	fingerprint := fp{Machine: "torn", Procs: 2}
	key, err := c.keyFor(fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	c.store(key, "torn-cell", fingerprint, 13)
	seg := segmentFile(t, c)
	c.Close()
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(full); cut += len(full)/8 + 1 {
		if err := os.WriteFile(seg, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got int
		hit := c.load(key, &got)
		c.Close()
		if hit {
			t.Fatalf("partial write of %d/%d bytes loaded as a hit", cut, len(full))
		}
	}
}

func TestFlagsOptionsOpensCache(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	f := Flags{J: 1, Dir: dir}
	first := f.Options("test")
	if first.Cache == nil || first.Cache.ReadOnly() {
		t.Fatalf("first sweep did not get a writable cache: %+v", first.Cache)
	}
	defer first.Cache.Close()
	// A second sweep on the same directory runs read-only beside the
	// lock holder rather than without a cache.
	second := f.Options("test")
	if second.Cache == nil || !second.Cache.ReadOnly() {
		t.Fatalf("second sweep did not get a read-only cache: %+v", second.Cache)
	}
	second.Cache.Close()
	// A cache that cannot be opened disables caching rather than
	// aborting.
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	f = Flags{J: 1, Dir: filepath.Join(blocker, "cache")}
	if opt := f.Options("test"); opt.Cache != nil {
		t.Fatal("unopenable cache directory did not disable the cache")
	}
	f = Flags{J: 1, Dir: dir, NoCache: true}
	if opt := f.Options("test"); opt.Cache != nil {
		t.Fatal("-no-cache opened a cache")
	}
}
