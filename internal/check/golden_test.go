package check_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/check"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/perturb"
	"github.com/hpcbench/beff/internal/runner"
)

// The golden-corpus regression harness: full benchmark outputs for
// canonical machine configurations are pinned byte-exactly under
// testdata/golden/. The simulator is deterministic, so any refactor
// that shifts a single number — a reduction reordered, a resource
// model nudged, an off-by-one in the schedule — fails these tests
// immediately instead of silently drifting the paper reproduction.
//
// To bless intended changes, regenerate the corpus:
//
//	go test ./internal/check/ -run Golden -update

var update = flag.Bool("update", false, "rewrite testdata/golden from current outputs")

const goldenDir = "testdata/golden"

// goldenMachines are the canonical configs: the paper's two main
// systems (Cray T3E, IBM SP) plus the generic commodity cluster.
var goldenMachines = []string{"t3e", "sp", "cluster"}

func goldenCompare(t *testing.T, name string, v any) {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join(goldenDir, name)
	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s — generate it with: go test ./internal/check/ -run Golden -update (%v)", path, err)
	}
	if !bytes.Equal(want, data) {
		t.Fatalf("%s drifted from the golden corpus (first difference at byte %d, got %d bytes, want %d).\n"+
			"If the change is intended, regenerate with:\n  go test ./internal/check/ -run Golden -update",
			name, firstDiff(want, data), len(data), len(want))
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// goldenBeffOptions keeps the corpus cheap: the small looplength cap
// exercises the identical control flow at a fraction of the event
// count, and the fixed L_max override decouples the corpus from any
// future change to a profile's memory size.
func goldenBeffOptions() core.Options {
	return core.Options{LmaxOverride: 1 << 16, MaxLooplength: 2, Reps: 1, Seed: 1}
}

func TestGoldenBeff(t *testing.T) {
	for _, key := range goldenMachines {
		t.Run(key, func(t *testing.T) {
			p, err := machine.Lookup(key)
			if err != nil {
				t.Fatal(err)
			}
			w, err := p.BuildWorld(8)
			if err != nil {
				t.Fatal(err)
			}
			c := check.New()
			c.WatchWorld(&w)
			c.WatchNet(w.Net)
			res, err := core.Run(w, goldenBeffOptions())
			if err != nil {
				t.Fatal(err)
			}
			c.VerifyBeff(res)
			if err := c.Finish(); err != nil {
				t.Fatal(err)
			}
			goldenCompare(t, "beff_"+key+".json", res)
		})
	}
}

func TestGoldenBeffIO(t *testing.T) {
	for _, key := range goldenMachines {
		t.Run(key, func(t *testing.T) {
			p, err := machine.Lookup(key)
			if err != nil {
				t.Fatal(err)
			}
			w, err := p.BuildIOWorld(4)
			if err != nil {
				t.Fatal(err)
			}
			fs, err := p.BuildFS()
			if err != nil {
				t.Fatal(err)
			}
			c := check.New()
			c.WatchWorld(&w)
			c.WatchNet(w.Net)
			c.WatchFS(fs)
			res, err := beffio.Run(w, fs, beffio.Options{T: des.DurationOf(0.5), MPart: p.MPart()})
			if err != nil {
				t.Fatal(err)
			}
			c.VerifyBeffIO(res)
			if err := c.Finish(); err != nil {
				t.Fatal(err)
			}
			goldenCompare(t, "beffio_"+key+".json", res)
		})
	}
}

func TestGoldenRobustness(t *testing.T) {
	prof, err := perturb.Load("stormy")
	if err != nil {
		t.Fatal(err)
	}
	const reps = 3
	for _, key := range goldenMachines {
		t.Run(key, func(t *testing.T) {
			c := check.New()
			values := make([]float64, 0, reps)
			for rep := 0; rep < reps; rep++ {
				cell := runner.BeffCell(runner.CellSpec{Machine: key, Procs: 4, Beff: goldenBeffOptions(), Perturb: prof, Seed: 1, Rep: rep})
				res, err := cell.Run()
				if err != nil {
					t.Fatal(err)
				}
				c.VerifyBeff(res)
				values = append(values, res.Beff)
			}
			rob := runner.SummarizeReps(values)
			c.VerifyRobustness(rob)
			if err := c.Finish(); err != nil {
				t.Fatal(err)
			}
			goldenCompare(t, "robustness_"+key+".json", rob)
		})
	}
}

// TestGoldenPatternTable pins the b_eff_io pattern table itself (the
// resolved Table 2 for the 2 MB M_PART floor): the scheduling quota is
// part of the benchmark's definition, not an implementation detail.
func TestGoldenPatternTable(t *testing.T) {
	pats := beffio.Table2(2 << 20)
	c := check.New()
	c.VerifyPatternTable(pats)
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "patterntable_2mb.json", pats)
}
