package runner

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/hpcbench/beff/internal/report"
)

var updateFleet = flag.Bool("update", false, "rewrite fleet golden files")

// fleetTestSpec is the mini-fleet the golden and equality tests pin:
// three profiles spanning the fabric families (torus, SMP cluster,
// shared-memory bus), a ladder that exercises MaxProcs clamping (sx5
// tops out at 8), and two perturbed repetitions per point.
func fleetTestSpec() *FleetSpec {
	return &FleetSpec{
		Machines:      []string{"t3e", "sp", "sx5"},
		Procs:         []int{4, 16},
		Seed:          1,
		Reps:          2,
		Perturb:       stragglerProfile(),
		PerturbName:   "test-straggler",
		MaxLooplength: 2,
		InnerReps:     1,
		SkipAnalysis:  true,
		LmaxOverride:  1 << 16,
	}
}

func checkFleetGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateFleet {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run go test -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (run go test -update after verifying):\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestFleetGolden pins the whole fleet pipeline byte-exactly: spec →
// cells → sweep → assembly → text, CSV and JSON renderings.
func TestFleetGolden(t *testing.T) {
	fr, err := RunFleet(fleetTestSpec(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkFleetGolden(t, "fleet.golden", []byte(report.FleetText(fr)))

	var csv bytes.Buffer
	if err := report.FleetCSV(&csv, fr); err != nil {
		t.Fatal(err)
	}
	checkFleetGolden(t, "fleet_csv.golden", csv.Bytes())

	js, err := report.FleetJSON(fr)
	if err != nil {
		t.Fatal(err)
	}
	checkFleetGolden(t, "fleet_json.golden", js)
}

// TestFleetEquality crosses sweep workers (-j) and per-cell shards
// (-shards): the fleet JSON must be byte-identical at every
// combination.
func TestFleetEquality(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 8} {
		for _, shards := range []int{1, 4} {
			spec := fleetTestSpec()
			spec.Shards = shards
			fr, err := RunFleet(spec, Options{Workers: workers})
			if err != nil {
				t.Fatalf("j=%d shards=%d: %v", workers, shards, err)
			}
			js, err := report.FleetJSON(fr)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = js
				continue
			}
			if !bytes.Equal(js, want) {
				t.Errorf("j=%d shards=%d: fleet JSON differs from the j=1 shards=1 run", workers, shards)
			}
		}
	}
}

func TestFleetSpecNormalize(t *testing.T) {
	s := &FleetSpec{}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if len(s.Machines) < 13 {
		t.Errorf("empty Machines should expand to the whole registry, got %d", len(s.Machines))
	}
	if len(s.Procs) != 2 || s.Procs[0] != 4 || s.Procs[1] != 8 {
		t.Errorf("default ladder = %v", s.Procs)
	}
	if s.Seed != 1 || s.MaxLooplength != 2 || s.InnerReps != 1 || s.Shards != 1 {
		t.Errorf("defaults not applied: %+v", s)
	}
	if s.Reps != 0 || s.Perturb != nil {
		t.Error("reps without a profile should normalise to no perturbation")
	}

	if err := (&FleetSpec{Machines: []string{"cray-1"}}).Normalize(); err == nil {
		t.Error("unknown machine should fail")
	}
	if err := (&FleetSpec{Procs: []int{1}}).Normalize(); err == nil {
		t.Error("sub-minimum ladder entry should fail")
	}

	// A profile set without reps (and vice versa) disables perturbation.
	s = &FleetSpec{Perturb: stragglerProfile(), Reps: 0}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Perturb != nil {
		t.Error("profile without reps should normalise away")
	}
}

// TestFleetLadderClamps pins the MaxProcs clamp: ladder entries above
// a machine's limit collapse onto the limit, and every machine keeps
// at least one point.
func TestFleetLadderClamps(t *testing.T) {
	spec := &FleetSpec{Machines: []string{"sx5"}, Procs: []int{16, 32}, LmaxOverride: 1 << 16}
	cells, refs, err := FleetCells(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 || refs[0].Procs != 8 {
		t.Fatalf("sx5 ladder {16,32} should clamp to one point at 8, got %+v", refs)
	}
	if len(cells) != 1 {
		t.Fatalf("expected 1 cell, got %d", len(cells))
	}
}

// TestFleetCellOrderDeterministic guards the expansion order the
// assembler and the cache rely on.
func TestFleetCellOrderDeterministic(t *testing.T) {
	a, refsA, err := FleetCells(fleetTestSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, refsB, err := FleetCells(fleetTestSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(refsA) != len(refsB) {
		t.Fatal("expansion size not deterministic")
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Errorf("cell %d key %q vs %q", i, a[i].Key, b[i].Key)
		}
	}
	// Baseline + 2 reps per point, two ladder rungs per machine (sx5's
	// {4,16} clamps to {4,8} — still two points).
	if wantCells := 3 * 2 * (1 + 2); len(a) != wantCells {
		t.Errorf("cells = %d, want %d", len(a), wantCells)
	}
}

// TestFleetCellCount: the arithmetic count equals the expansion's
// length, clamped and duplicated ladders included, and saturates
// instead of overflowing.
func TestFleetCellCount(t *testing.T) {
	for _, spec := range []*FleetSpec{
		fleetTestSpec(),
		{Machines: []string{"sx5"}, Procs: []int{16, 32}},
		{Machines: []string{"sx5", "t3e", "sx5"}, Procs: []int{8, 2, 8, 4, 1024}, Reps: 3, Perturb: stragglerProfile()},
		{Procs: []int{2, 8}, Reps: 5}, // no profile: reps clear to zero
	} {
		n, err := spec.CellCount()
		if err != nil {
			t.Fatal(err)
		}
		cells, _, err := FleetCells(spec)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(cells) {
			t.Errorf("%v × %v, reps %d: counted %d cells, expanded %d", spec.Machines, spec.Procs, spec.Reps, n, len(cells))
		}
	}
	huge := &FleetSpec{Machines: []string{"t3e", "sp"}, Procs: []int{4}, Reps: math.MaxInt, Perturb: stragglerProfile()}
	if n, err := huge.CellCount(); err != nil || n != math.MaxInt {
		t.Fatalf("overflowing fleet counted %d (%v), want saturation at math.MaxInt", n, err)
	}
	if _, err := (&FleetSpec{Machines: []string{"nosuch"}}).CellCount(); err == nil {
		t.Fatal("unknown machine counted without error")
	}
}

func TestCellProduct(t *testing.T) {
	for _, tc := range []struct {
		axes []int
		want int
	}{
		{[]int{3, 2, 4}, 24},
		{[]int{2, 0, math.MaxInt}, 0},
		{[]int{1 << 62, 2}, math.MaxInt},
		{[]int{1 << 62, 2, 0}, 0},
		{[]int{math.MaxInt, 1}, math.MaxInt},
	} {
		if got := CellProduct(tc.axes...); got != tc.want {
			t.Errorf("CellProduct(%v) = %d, want %d", tc.axes, got, tc.want)
		}
	}
}
