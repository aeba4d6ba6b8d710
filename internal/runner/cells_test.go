package runner

import (
	"path/filepath"
	"testing"

	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/report"
)

func quickBeff() core.Options {
	return core.Options{MaxLooplength: 1, Reps: 1, SkipAnalysis: true}
}

// testConfig is a small declarative SMP cluster, the shape a
// cmd/sensitivity user would supply as JSON.
func testConfig() machine.ConfigFile {
	return machine.ConfigFile{
		Key:             "testcluster",
		Name:            "test 2x4 SMP cluster",
		MaxProcs:        8,
		SMPNodeSize:     4,
		MemoryPerProcMB: 256,
		RmaxPerProcGF:   1.0,
		Fabric: machine.FabricConfig{
			Kind: "smp-cluster", BusGBps: 4, AdapterGBps: 1,
			IntraLatencyUs: 2, InterLatencyUs: 10,
		},
		NIC: machine.NICConfig{
			TxGBps: 1, RxGBps: 1, PortGBps: 1.2,
			SendOverheadUs: 4, RecvOverheadUs: 4, MemcpyGBps: 3,
		},
	}
}

func beffSweepCells() []Cell[*core.Result] {
	var cells []Cell[*core.Result]
	for _, procs := range []int{2, 3, 4} {
		cells = append(cells, BeffCell(CellSpec{Machine: "cluster", Procs: procs, Beff: quickBeff()}))
	}
	return cells
}

// renderTable turns sweep results into the human-facing protocol, the
// byte-level artifact the golden tests pin.
func renderTable(t *testing.T, res []Result[*core.Result]) string {
	t.Helper()
	if err := Err(res); err != nil {
		t.Fatal(err)
	}
	var rows []report.Table1Row
	for _, r := range res {
		rows = append(rows, report.FromBeff("generic cluster", r.Value))
	}
	return report.Table1(rows)
}

// TestParallelSweepByteIdentical is the acceptance property: a sweep at
// -j 8 renders the same bytes as at -j 1.
func TestParallelSweepByteIdentical(t *testing.T) {
	serial := renderTable(t, Sweep(beffSweepCells(), Options{Workers: 1}))
	parallel := renderTable(t, Sweep(beffSweepCells(), Options{Workers: 8}))
	if serial != parallel {
		t.Fatalf("-j 8 output differs from -j 1:\n--- j1 ---\n%s--- j8 ---\n%s", serial, parallel)
	}
}

// TestCachedSweepByteIdentical pins the JSON round-trip fidelity of
// cached results: a warm-cache sweep must render byte-identical
// protocols to the cold run that populated it.
func TestCachedSweepByteIdentical(t *testing.T) {
	cache, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	cold := Sweep(beffSweepCells(), Options{Workers: 4, Cache: cache})
	warm := Sweep(beffSweepCells(), Options{Workers: 4, Cache: cache})
	for i, r := range warm {
		if !r.Cached {
			t.Fatalf("cell %s not served from cache on the warm run", r.Key)
		}
		if cold[i].Cached {
			t.Fatalf("cell %s unexpectedly cached on the cold run", cold[i].Key)
		}
	}
	if a, b := renderTable(t, cold), renderTable(t, warm); a != b {
		t.Fatalf("cached protocol differs from computed:\n--- cold ---\n%s--- warm ---\n%s", a, b)
	}
}

// TestBeffIOCellCacheRoundTrip does the same for the larger b_eff_io
// protocol, whose Result nests the full per-pattern detail.
func TestBeffIOCellCacheRoundTrip(t *testing.T) {
	cache, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	opt := beffio.Options{T: 2 * des.Second, MaxRepsPerPattern: 16}
	cells := []Cell[*beffio.Result]{BeffIOCell(CellSpec{Machine: "cluster", Procs: 2, IO: opt})}
	cold := Sweep(cells, Options{Cache: cache})
	warm := Sweep(cells, Options{Cache: cache})
	if err := Err(cold); err != nil {
		t.Fatal(err)
	}
	if !warm[0].Cached {
		t.Fatal("b_eff_io cell not served from cache")
	}
	a := report.BeffIOProtocol(cold[0].Value)
	b := report.BeffIOProtocol(warm[0].Value)
	if a != b {
		t.Fatalf("cached b_eff_io protocol differs:\n--- cold ---\n%s--- warm ---\n%s", a, b)
	}
}

// TestConfigCellFingerprintTracksKnobs mirrors cmd/sensitivity: a
// one-knob change to the declarative config must be a cache miss.
func TestConfigCellFingerprintTracksKnobs(t *testing.T) {
	cache, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	cf := testConfig()
	cell := func(cf machine.ConfigFile) Cell[*core.Result] {
		return BeffCell(CellSpec{Config: &cf, Procs: 4, Beff: quickBeff()})
	}
	Sweep([]Cell[*core.Result]{cell(cf)}, Options{Cache: cache})

	tweaked := cf
	tweaked.NIC.TxGBps *= 1.25
	res := Sweep([]Cell[*core.Result]{cell(cf), cell(tweaked)}, Options{Cache: cache})
	if err := Err(res); err != nil {
		t.Fatal(err)
	}
	if !res[0].Cached {
		t.Fatal("unchanged config should hit the cache")
	}
	if res[1].Cached {
		t.Fatal("changed knob must miss the cache")
	}
	if res[1].Value.Beff == res[0].Value.Beff {
		t.Fatal("knob change had no effect on the measurement — fingerprint may be over-broad")
	}
}

// TestFailedBenchmarkCellReportsError covers the cmd exit-status fix:
// an impossible partition fails its own cell without killing the sweep.
func TestFailedBenchmarkCellReportsError(t *testing.T) {
	res := Sweep([]Cell[*core.Result]{
		BeffCell(CellSpec{Machine: "cluster", Procs: 2, Beff: quickBeff()}),
		BeffCell(CellSpec{Machine: "no-such-machine", Procs: 2, Beff: quickBeff()}),
	}, Options{Workers: 2})
	if res[0].Err != nil {
		t.Fatalf("healthy cell failed: %v", res[0].Err)
	}
	if res[1].Err == nil || Err(res) == nil {
		t.Fatal("unknown machine must fail its cell and the sweep summary")
	}
}
