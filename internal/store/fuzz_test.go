package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// replayPrefix is the test's own reading of the record format: it
// walks data frame by frame and stops at the first frame that is short
// or fails decodeRecord. It returns the end of the last whole record
// and the key -> value map those records leave behind.
func replayPrefix(data []byte) (good int64, live map[string]string) {
	live = map[string]string{}
	off := 0
	for len(data)-off >= recHdrSize {
		end := off + recHdrSize + int(binary.LittleEndian.Uint32(data[off:]))
		if end > len(data) {
			break
		}
		flags, key, value, err := decodeRecord(data[off:end])
		if err != nil {
			break
		}
		if flags&flagTombstone != 0 {
			delete(live, string(key))
		} else {
			live[string(key)] = string(value)
		}
		off = end
	}
	return int64(off), live
}

// FuzzSegmentReplay feeds arbitrary bytes to recovery as the only
// segment of a store, either a plain segment or a compaction
// generation. Opening must never panic; a read-only open must index
// the records before the first bad frame without touching the file; a
// writer open must truncate exactly there — a record boundary — and a
// reopen must index exactly the records that survived.
func FuzzSegmentReplay(f *testing.F) {
	rec := func(flags byte, key, value string) []byte {
		return appendRecord(nil, flags, key, []byte(value))
	}
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	a, b := rec(0, "a", "alpha"), rec(0, "b", "beta")
	badCRC := rec(0, "c", "gamma")
	badCRC[5] ^= 0xff
	f.Add([]byte{}, false)
	f.Add(a, false)
	f.Add(cat(a, b, rec(flagTombstone, "a", ""), rec(0, "b", "beta2")), true)
	f.Add(cat(a, b[:len(b)-3]), false)
	f.Add(cat(a, b[:5]), true)
	f.Add(cat(a, badCRC, b), false)
	f.Add(cat(a, []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}), false)
	f.Add(cat(a, []byte{4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}), true)

	f.Fuzz(func(t *testing.T, data []byte, compacted bool) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(1, compacted))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		good, live := replayPrefix(data)
		check := func(s *Store, stage string) {
			t.Helper()
			if s.Len() != len(live) {
				t.Fatalf("%s: %d entries indexed, want %d", stage, s.Len(), len(live))
			}
			for k, want := range live {
				got, ok, err := s.Get(k)
				if err != nil || !ok || string(got) != want {
					t.Fatalf("%s: %q = %q, %v, %v; want %q", stage, k, got, ok, err, want)
				}
			}
		}
		size := func() int64 {
			t.Helper()
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			return info.Size()
		}

		ro, err := Open(dir, Options{ReadOnly: true})
		if err != nil {
			t.Fatalf("read-only open: %v", err)
		}
		check(ro, "read-only open")
		ro.Close()
		if size() != int64(len(data)) {
			t.Fatalf("read-only open changed the segment: %d -> %d bytes", len(data), size())
		}

		w, err := Open(dir, Options{NoAutoCompact: true})
		if err != nil {
			t.Fatalf("writer open: %v", err)
		}
		check(w, "writer open")
		if got := size(); got != good {
			t.Fatalf("recovery truncated to %d bytes, want the record boundary %d", got, good)
		}
		w.Close()

		again, err := Open(dir, Options{NoAutoCompact: true})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer again.Close()
		check(again, "reopen")
		if got := size(); got != good {
			t.Fatalf("reopen changed the recovered segment: %d -> %d bytes", good, got)
		}
	})
}
