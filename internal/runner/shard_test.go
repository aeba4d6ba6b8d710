package runner

import (
	"encoding/json"
	"testing"

	"github.com/hpcbench/beff/internal/core"
)

func shardBeffOptions() core.Options {
	return core.Options{LmaxOverride: 1 << 16, MaxLooplength: 2, Reps: 1, Seed: 1, SkipAnalysis: true}
}

// TestShardSweepEquality crosses the two parallelism axes — sweep
// workers (-j) and per-cell shard workers (-shards) — and requires the
// served bytes to be identical at every combination, perturbed cells
// included.
func TestShardSweepEquality(t *testing.T) {
	opt := shardBeffOptions()
	prof := stragglerProfile()
	mkCells := func(shards int) []Cell[*core.Result] {
		return []Cell[*core.Result]{
			BeffCell(CellSpec{Machine: "t3e", Procs: 8, Beff: opt, Shards: shards}),
			BeffCell(CellSpec{Machine: "t3e", Procs: 8, Beff: opt, Perturb: prof, Seed: 1, Shards: shards}),
		}
	}
	var want []string
	for _, workers := range []int{1, 8} {
		for _, shards := range []int{1, 4} {
			results := Sweep(mkCells(shards), Options{Workers: workers})
			if err := Err(results); err != nil {
				t.Fatalf("j=%d shards=%d: %v", workers, shards, err)
			}
			got := make([]string, len(results))
			for i, r := range results {
				data, err := json.Marshal(r.Value)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = string(data)
			}
			if want == nil {
				want = got
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("j=%d shards=%d: cell %d bytes differ from the j=1 shards=1 run", workers, shards, i)
				}
			}
		}
	}
}
