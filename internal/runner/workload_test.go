package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/hpcbench/beff/internal/workload"
)

// testWorkloadSpec is a small two-phase workload exercising write and
// read leaves.
func testWorkloadSpec() *workload.Spec {
	s := &workload.Spec{
		Name: "runner-test",
		Seed: 5,
		Phases: []workload.Phase{
			{Name: "write", Pattern: &workload.Node{Op: workload.OpShared, Count: 4, Chunk: 32768}},
			{Name: "read", Pattern: &workload.Node{Op: workload.OpShared, Count: 4, Chunk: 32768, Read: true}},
		},
	}
	s.Normalize()
	return s
}

// TestWorkloadSweepByteIdentical extends the -j acceptance property to
// workload cells: a sweep of custom cells at 8 workers produces
// byte-identical result JSON to the sequential sweep, cold and warm.
func TestWorkloadSweepByteIdentical(t *testing.T) {
	cells := func() []Cell[*workload.Result] {
		var cs []Cell[*workload.Result]
		for _, procs := range []int{2, 3, 4} {
			cs = append(cs, WorkloadCell(CellSpec{Machine: "cluster", Procs: procs, Workload: testWorkloadSpec()}))
		}
		return cs
	}
	// render marshals keys and simulation values only — the envelope's
	// Elapsed field is wall-clock and legitimately varies.
	render := func(res []Result[*workload.Result]) []byte {
		if err := Err(res); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, r := range res {
			data, err := json.Marshal(r.Value)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "%s\t%s\n", r.Key, data)
		}
		return buf.Bytes()
	}
	serial := render(Sweep(cells(), Options{Workers: 1}))
	parallel := render(Sweep(cells(), Options{Workers: 8}))
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("-j 8 workload sweep differs from -j 1:\n--- j1 ---\n%s\n--- j8 ---\n%s", serial, parallel)
	}

	cache, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	cold := Sweep(cells(), Options{Workers: 4, Cache: cache})
	warm := Sweep(cells(), Options{Workers: 4, Cache: cache})
	for _, r := range warm {
		if !r.Cached {
			t.Fatalf("cell %s not served from cache on the warm run", r.Key)
		}
	}
	if err := Err(cold); err != nil {
		t.Fatal(err)
	}
	// Compare values only: the Cached flag legitimately differs.
	for i := range cold {
		cj, _ := json.Marshal(cold[i].Value)
		wj, _ := json.Marshal(warm[i].Value)
		if !bytes.Equal(cj, wj) {
			t.Fatalf("cached workload result differs for %s:\n%s\n%s", cold[i].Key, cj, wj)
		}
	}
}

// TestWorkloadCellFingerprintTracksSpec: any change to the pattern
// tree is a cache miss; the identical canonical spec is a hit.
func TestWorkloadCellFingerprintTracksSpec(t *testing.T) {
	cache, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	cell := func(spec *workload.Spec) Cell[*workload.Result] {
		return WorkloadCell(CellSpec{Machine: "cluster", Procs: 2, Workload: spec})
	}
	Sweep([]Cell[*workload.Result]{cell(testWorkloadSpec())}, Options{Cache: cache})

	tweaked := testWorkloadSpec()
	tweaked.Phases[0].Pattern.Chunk *= 2
	res := Sweep([]Cell[*workload.Result]{
		cell(testWorkloadSpec()),
		cell(tweaked),
	}, Options{Cache: cache})
	if err := Err(res); err != nil {
		t.Fatal(err)
	}
	if !res[0].Cached {
		t.Fatal("identical spec should hit the cache")
	}
	if res[1].Cached {
		t.Fatal("changed pattern tree must miss the cache")
	}
}
