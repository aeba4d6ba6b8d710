package runner

import (
	"testing"

	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/obs"
	"github.com/hpcbench/beff/internal/perturb"
)

// TestCellSpecFingerprintPins is the cache-compatibility pin of the
// cell constructors: every row's content address (FingerprintKey) and
// cell key are hard-coded values recorded from the positional
// constructors CellSpec replaced. If a row fails, every cache entry of
// that shape already in users' .beffcache/ directories silently stops
// hitting. The rows also pin the spec's rules: shards and Obs stay out
// of the fingerprint, a disabled profile counts as none, /rep<n> marks
// only perturbed keys, b_eff_io's MPart defaults from the profile
// before fingerprinting, a workload cell keeps zero b_eff_io options,
// and a Config fingerprint holds the unclamped Procs. (A config cell's
// key was caller-chosen before; cmd/sensitivity still sets it.)
func TestCellSpecFingerprintPins(t *testing.T) {
	opt := shardBeffOptions()
	prof := stragglerProfile()
	cf := testConfig()
	io := beffio.Options{T: 2 * des.Second}
	ioMPart := func(mpart int64) beffio.Options { return beffio.Options{T: 2 * des.Second, MPart: mpart} }
	beff := func(s CellSpec) (string, any) { c := BeffCell(s); return c.Key, c.Fingerprint }
	beffIO := func(s CellSpec) (string, any) { c := BeffIOCell(s); return c.Key, c.Fingerprint }
	wl := func(s CellSpec) (string, any) { c := WorkloadCell(s); return c.Key, c.Fingerprint }

	const (
		beffT3E    = "d3e136fdc6daf19be0feeac94be2e00198b98f0ad5367b6fce5af7f34793740e"
		beffioT3E  = "8d547865214a4d5335dcd83b52e533ce609a0e69e34e8dc3cca0f7f920639f59"
		workloadCl = "3f4da169a0acb7197934db139b67f89708a9f33884ce65cba1dfc0741e63180e"
	)
	for _, tc := range []struct {
		name    string
		cell    func() (string, any)
		key, fp string
	}{
		{"beff", func() (string, any) { return beff(CellSpec{Machine: "t3e", Procs: 8, Beff: opt}) },
			"beff:t3e@8", beffT3E},
		{"beff-shards4", func() (string, any) { return beff(CellSpec{Machine: "t3e", Procs: 8, Beff: opt, Shards: 4}) },
			"beff:t3e@8", beffT3E},
		{"beff-shards4-obs", func() (string, any) {
			return beff(CellSpec{Machine: "t3e", Procs: 8, Beff: opt, Shards: 4, Obs: obs.New()})
		}, "beff:t3e@8", beffT3E},
		{"beff-disabled-profile", func() (string, any) {
			return beff(CellSpec{Machine: "t3e", Procs: 8, Beff: opt, Perturb: &perturb.Profile{}, Seed: 7, Rep: 2})
		}, "beff:t3e@8", beffT3E},
		{"beff-perturbed", func() (string, any) {
			return beff(CellSpec{Machine: "t3e", Procs: 8, Beff: opt, Perturb: prof, Seed: 1})
		}, "beff:t3e@8/rep0", "ef7676805a841c7ecca0fb9cb6cde9f810c0a253354140a845fa8d8eaa8b0aba"},
		{"beff-perturbed-seed7-rep2", func() (string, any) {
			return beff(CellSpec{Machine: "t3e", Procs: 8, Beff: opt, Perturb: prof, Seed: 7, Rep: 2})
		}, "beff:t3e@8/rep2", "98dd53cd5de3e20430285afa7c9ac485f169c8e9cc1af65491627337b0d4d162"},
		{"beff-perturbed-shards4-obs", func() (string, any) {
			return beff(CellSpec{Machine: "t3e", Procs: 8, Beff: opt, Perturb: prof, Seed: 1, Rep: 1, Shards: 4, Obs: obs.New()})
		}, "beff:t3e@8/rep1", "26c21ff4b4f0bdabdad22c14f070c956c81fcd2a89bfbe0fd50df44cf670ec61"},
		{"beff-config", func() (string, any) { return beff(CellSpec{Config: &cf, Procs: 4, Beff: quickBeff()}) },
			"beff:testcluster@4", "5961650b4515d79475600b9c8b54119f7511da2a410e4cfa688785b25eda0397"},
		{"beff-config-over-max", func() (string, any) { return beff(CellSpec{Config: &cf, Procs: 64, Beff: quickBeff()}) },
			"beff:testcluster@64", "a65aaf66342afdd4ac85926e56de64e636ef96220304e0ab20844f9fb4718272"},
		{"beffio-mpart-defaulted", func() (string, any) { return beffIO(CellSpec{Machine: "t3e", Procs: 4, IO: io}) },
			"beffio:t3e@4", beffioT3E},
		{"beffio-mpart-explicit", func() (string, any) { return beffIO(CellSpec{Machine: "t3e", Procs: 4, IO: ioMPart(2 << 20)}) },
			"beffio:t3e@4", beffioT3E},
		{"beffio-mpart-explicit-4MiB", func() (string, any) { return beffIO(CellSpec{Machine: "t3e", Procs: 4, IO: ioMPart(4 << 20)}) },
			"beffio:t3e@4", "e0562f785ceedff6b4167a317ed21c80f538317c6fde61c5ffefbe5dea28502b"},
		{"beffio-workload-ignored", func() (string, any) {
			return beffIO(CellSpec{Machine: "t3e", Procs: 4, IO: io, Workload: testWorkloadSpec()})
		}, "beffio:t3e@4", beffioT3E},
		{"beffio-sp", func() (string, any) { return beffIO(CellSpec{Machine: "sp", Procs: 2, IO: quickBeffIO()}) },
			"beffio:sp@2", "81f3ccfa2ac49e20c6cf0c9d9c7d15b317f1cd1f3a3bf55151276e2f0e554b1b"},
		{"beffio-perturbed", func() (string, any) {
			return beffIO(CellSpec{Machine: "t3e", Procs: 4, IO: io, Perturb: prof, Seed: 1})
		}, "beffio:t3e@4/rep0", "a3d2c0a619e3a16d7b530233179acfe3ccb7e58f38d308fe7bf11c80eda1f6e8"},
		{"workload", func() (string, any) { return wl(CellSpec{Machine: "cluster", Procs: 2, Workload: testWorkloadSpec()}) },
			"workload:runner-test:cluster@2", workloadCl},
		{"workload-io-ignored", func() (string, any) {
			return wl(CellSpec{Machine: "cluster", Procs: 2, Workload: testWorkloadSpec(), IO: io})
		}, "workload:runner-test:cluster@2", workloadCl},
		{"workload-perturbed", func() (string, any) {
			return wl(CellSpec{Machine: "cluster", Procs: 2, Workload: testWorkloadSpec(), Perturb: prof, Seed: 3, Rep: 1})
		}, "workload:runner-test:cluster@2/rep1", "67e45157a02478b02872d889bc81313517efa0c64027de3f13e283695183d943"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			key, fp := tc.cell()
			hex, err := FingerprintKey(fp)
			if err != nil {
				t.Fatal(err)
			}
			if key != tc.key {
				t.Errorf("cell key %q, want %q", key, tc.key)
			}
			if hex != tc.fp {
				t.Errorf("fingerprint %s, want %s — cached entries of this shape no longer hit", hex, tc.fp)
			}
		})
	}
}

// TestConfigCellClampsProcs: a Config cell asking for more processes
// than the config has runs at its MaxProcs, and a later edit of the
// caller's config does not reach the built cell.
func TestConfigCellClampsProcs(t *testing.T) {
	cf := testConfig()
	cell := BeffCell(CellSpec{Config: &cf, Procs: 64, Beff: shardBeffOptions()})
	before, err := FingerprintKey(cell.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	cf.MaxProcs = 2
	after, err := FingerprintKey(cell.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatal("editing the caller's config changed the built cell's fingerprint")
	}
	res := Sweep([]Cell[*core.Result]{cell}, Options{})
	if err := Err(res); err != nil {
		t.Fatal(err)
	}
	if got := res[0].Value.Procs; got != testConfig().MaxProcs {
		t.Fatalf("ran at %d procs, want the config's MaxProcs %d", got, testConfig().MaxProcs)
	}
}
