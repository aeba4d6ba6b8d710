package runner

import (
	"reflect"
	"testing"

	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/obs"
)

func sweepMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		CellsDone:   reg.Counter("runner_cells_done_total"),
		CellsFailed: reg.Counter("runner_cells_failed_total"),
		CacheHits:   reg.Counter("runner_cache_hits_total"),
		WorkersBusy: reg.Gauge("runner_workers_busy"),
	}
}

// TestSweepMetricsDeterministicAcrossWorkers pins the j-invariance of
// final metrics snapshots: the same sweep at -j1 and -j8 must leave
// the registry in an identical state, because every sweep instrument
// is either a commutative sum or a gauge that drains to zero. (This is
// why Metrics deliberately has no max-occupancy gauge — its value
// would depend on the worker count.)
func TestSweepMetricsDeterministicAcrossWorkers(t *testing.T) {
	prof := stragglerProfile()
	opt := core.Options{LmaxOverride: 1 << 16, MaxLooplength: 1, Reps: 1, Seed: 1}
	snapFor := func(workers int) []obs.Sample {
		reg := obs.New()
		cells := make([]Cell[*core.Result], 0, 4)
		for r := 0; r < 4; r++ {
			cells = append(cells, BeffCell(CellSpec{Machine: "t3e", Procs: 4, Beff: opt, Perturb: prof, Seed: 1, Rep: r}))
		}
		results := Sweep(cells, Options{Workers: workers, Metrics: sweepMetrics(reg)})
		if err := Err(results); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot().Samples
	}
	j1, j8 := snapFor(1), snapFor(8)
	if !reflect.DeepEqual(j1, j8) {
		t.Fatalf("final metrics snapshots differ across worker counts:\n-j1: %+v\n-j8: %+v", j1, j8)
	}
	done := false
	for _, s := range j1 {
		if s.Name == "runner_cells_done_total" && s.Value == 4 {
			done = true
		}
		if s.Name == "runner_workers_busy" && s.Value != 0 {
			t.Fatalf("workers-busy gauge did not drain: %v", s.Value)
		}
	}
	if !done {
		t.Fatalf("cells-done counter missing or wrong: %+v", j1)
	}
}
