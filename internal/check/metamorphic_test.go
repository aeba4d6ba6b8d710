package check_test

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/hpcbench/beff/internal/check"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/perturb"
	"github.com/hpcbench/beff/internal/runner"
)

// Metamorphic properties: relations that must hold between runs —
// cache hit versus recompute, serial versus parallel sweeps, repeated
// seeded perturbation — without knowing any run's absolute numbers.

func metaOptions() core.Options {
	return core.Options{LmaxOverride: 1 << 16, MaxLooplength: 2, Reps: 1, Seed: 1, SkipAnalysis: true}
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCacheHitEquivalence: a cache hit must be byte-equivalent to the
// recomputation it stands in for.
func TestCacheHitEquivalence(t *testing.T) {
	cache, err := runner.OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	cells := func() []runner.Cell[*core.Result] {
		return []runner.Cell[*core.Result]{
			runner.BeffCell(runner.CellSpec{Machine: "cluster", Procs: 4, Beff: metaOptions()}),
			runner.BeffCell(runner.CellSpec{Machine: "t3e", Procs: 4, Beff: metaOptions()}),
		}
	}
	cold := runner.Sweep(cells(), runner.Options{Cache: cache})
	if err := runner.Err(cold); err != nil {
		t.Fatal(err)
	}
	warm := runner.Sweep(cells(), runner.Options{Cache: cache})
	if err := runner.Err(warm); err != nil {
		t.Fatal(err)
	}
	c := check.New()
	for i := range cold {
		if cold[i].Cached || !warm[i].Cached {
			t.Fatalf("cell %s: cold cached=%v, warm cached=%v", cold[i].Key, cold[i].Cached, warm[i].Cached)
		}
		c.VerifyBeff(warm[i].Value)
		if got, want := marshal(t, warm[i].Value), marshal(t, cold[i].Value); string(got) != string(want) {
			t.Fatalf("cell %s: cache hit differs from recompute", cold[i].Key)
		}
	}
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
}

// perturbedCell builds a checked b_eff repetition cell: fresh world,
// seeded fault schedule, every invariant watch installed, violations
// surfaced as cell errors. This is the cell shape the acceptance
// criterion prescribes: a seeded-perturbation run must pass all
// invariant checks and be byte-reproducible at any -j.
func perturbedCell(machineKey string, procs int, prof *perturb.Profile, seed int64, rep int) runner.Cell[*core.Result] {
	return runner.Cell[*core.Result]{
		Key: fmt.Sprintf("checked:%s@%d/rep%d", machineKey, procs, rep),
		Run: func() (*core.Result, error) {
			p, err := machine.Lookup(machineKey)
			if err != nil {
				return nil, err
			}
			w, err := p.BuildWorld(procs)
			if err != nil {
				return nil, err
			}
			prof.ApplyNet(w.Net, perturb.RepSeed(seed, rep))
			c := check.New()
			c.WatchWorld(&w)
			c.WatchNet(w.Net)
			res, err := core.Run(w, metaOptions())
			if err != nil {
				return nil, err
			}
			c.VerifyBeff(res)
			if err := c.Finish(); err != nil {
				return nil, err
			}
			return res, nil
		},
	}
}

// TestPerturbedRunsReproducibleAtAnyParallelism: the same seeded fault
// schedule yields byte-identical protocols whether the repetition
// cells run serially (-j 1) or eight-wide (-j 8), and every repetition
// passes the full invariant suite in both modes.
func TestPerturbedRunsReproducibleAtAnyParallelism(t *testing.T) {
	prof, err := perturb.Load("stormy")
	if err != nil {
		t.Fatal(err)
	}
	cells := func() []runner.Cell[*core.Result] {
		var cs []runner.Cell[*core.Result]
		for rep := 0; rep < 8; rep++ {
			cs = append(cs, perturbedCell("cluster", 4, prof, 1, rep))
		}
		return cs
	}
	serial := runner.Sweep(cells(), runner.Options{Workers: 1})
	if err := runner.Err(serial); err != nil {
		t.Fatal(err)
	}
	parallel := runner.Sweep(cells(), runner.Options{Workers: 8})
	if err := runner.Err(parallel); err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if string(marshal(t, serial[i].Value)) != string(marshal(t, parallel[i].Value)) {
			t.Fatalf("rep %d: -j 1 and -j 8 protocols differ", i)
		}
	}
	// And the whole schedule is reproducible from its seed: a second
	// serial sweep is byte-identical to the first.
	again := runner.Sweep(cells(), runner.Options{Workers: 1})
	if err := runner.Err(again); err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if string(marshal(t, serial[i].Value)) != string(marshal(t, again[i].Value)) {
			t.Fatalf("rep %d: same seed, different protocol on re-run", i)
		}
	}
}

// TestUnperturbedDominatesPerturbed: pure fault injection can only
// remove performance. On every fabric topology the simulator models,
// the unperturbed b_eff must be at least the perturbed one.
func TestUnperturbedDominatesPerturbed(t *testing.T) {
	topologies := []string{
		"cluster", // crossbar
		"t3e",     // 3-D torus
		"sp",      // SMP cluster
		"myrinet", // fat tree
	}
	prof, err := perturb.Load("stormy")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range topologies {
		t.Run(key, func(t *testing.T) {
			p, err := machine.Lookup(key)
			if err != nil {
				t.Fatal(err)
			}
			run := func(perturbed bool) *core.Result {
				w, err := p.BuildWorld(4)
				if err != nil {
					t.Fatal(err)
				}
				c := check.New()
				c.WatchWorld(&w)
				c.WatchNet(w.Net)
				if perturbed {
					prof.ApplyNet(w.Net, 7)
				}
				res, err := core.Run(w, metaOptions())
				if err != nil {
					t.Fatal(err)
				}
				c.VerifyBeff(res)
				if err := c.Finish(); err != nil {
					t.Fatal(err)
				}
				return res
			}
			base, hurt := run(false), run(true)
			if hurt.Beff > base.Beff*(1+1e-9) {
				t.Fatalf("perturbation raised b_eff: %.1f → %.1f MB/s", base.Beff/1e6, hurt.Beff/1e6)
			}
		})
	}
}
