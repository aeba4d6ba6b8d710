package runner

import (
	"path/filepath"
	"testing"

	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/perturb"
)

func quickBeffIO() beffio.Options {
	return beffio.Options{T: 2 * des.Second, MaxRepsPerPattern: 16}
}

func stragglerProfile() *perturb.Profile {
	return &perturb.Profile{
		Name:       "test-straggler",
		Stragglers: []perturb.Straggler{{Procs: []int{1}, Slowdown: 4}},
	}
}

// perturbedBeff is a quick b_eff cell on cluster@2: repetition rep
// under prof with base seed seed.
func perturbedBeff(prof *perturb.Profile, seed int64, rep int) Cell[*core.Result] {
	return BeffCell(CellSpec{Machine: "cluster", Procs: 2, Beff: quickBeff(), Perturb: prof, Seed: seed, Rep: rep})
}

// cacheKey hashes a cell's fingerprint the way Sweep would.
func cacheKey(t *testing.T, fp any) string {
	t.Helper()
	c, err := OpenCache(filepath.Join(t.TempDir(), "c"))
	if err != nil {
		t.Fatal(err)
	}
	k, err := c.keyFor(fp)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestPerturbSeedEntersCacheKey is the satellite acceptance property:
// two perturbed cells differing only in seed must hash to different
// cache entries, as must two repetitions of the same base seed.
func TestPerturbSeedEntersCacheKey(t *testing.T) {
	prof := stragglerProfile()
	seed1 := perturbedBeff(prof, 1, 0)
	seed2 := perturbedBeff(prof, 2, 0)
	if cacheKey(t, seed1.Fingerprint) == cacheKey(t, seed2.Fingerprint) {
		t.Fatal("different seeds share a cache key — seed missing from the fingerprint")
	}
	rep0 := perturbedBeff(prof, 1, 0)
	rep1 := perturbedBeff(prof, 1, 1)
	if cacheKey(t, rep0.Fingerprint) == cacheKey(t, rep1.Fingerprint) {
		t.Fatal("two repetitions share a cache key")
	}
	// Same (profile, seed, rep) must stay stable, or caching is useless.
	again := perturbedBeff(prof, 1, 0)
	if cacheKey(t, seed1.Fingerprint) != cacheKey(t, again.Fingerprint) {
		t.Fatal("identical perturbed cells hash differently")
	}
	// The same properties for the I/O benchmark's fingerprint.
	ioSeed1 := BeffIOCell(CellSpec{Machine: "sp", Procs: 2, IO: quickBeffIO(), Perturb: prof, Seed: 1})
	ioSeed2 := BeffIOCell(CellSpec{Machine: "sp", Procs: 2, IO: quickBeffIO(), Perturb: prof, Seed: 2})
	if cacheKey(t, ioSeed1.Fingerprint) == cacheKey(t, ioSeed2.Fingerprint) {
		t.Fatal("b_eff_io: different seeds share a cache key")
	}
}

// TestUnperturbedRobustCellSharesPlainFingerprint pins cache
// compatibility: a nil (or empty) profile must produce the same
// fingerprint as the plain cell, so baselines reuse existing sweeps'
// cached entries — and pre-perturbation cache entries stay valid.
func TestUnperturbedRobustCellSharesPlainFingerprint(t *testing.T) {
	plain := BeffCell(CellSpec{Machine: "cluster", Procs: 2, Beff: quickBeff()})
	robust := perturbedBeff(nil, 0, 0)
	empty := perturbedBeff(&perturb.Profile{}, 0, 0)
	if cacheKey(t, plain.Fingerprint) != cacheKey(t, robust.Fingerprint) {
		t.Fatal("nil-profile robust cell must share the plain cell's cache key")
	}
	if cacheKey(t, plain.Fingerprint) != cacheKey(t, empty.Fingerprint) {
		t.Fatal("empty-profile robust cell must share the plain cell's cache key")
	}
	if cacheKey(t, plain.Fingerprint) == cacheKey(t, perturbedBeff(stragglerProfile(), 1, 0).Fingerprint) {
		t.Fatal("perturbed cell must not alias the plain cell")
	}
}

// TestRobustSweepEndToEnd runs a tiny perturbed repetition sweep —
// results must differ from the baseline, repeat exactly from cache, and
// parallelise without changing values.
func TestRobustSweepEndToEnd(t *testing.T) {
	cache, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	prof := stragglerProfile()
	mk := func() []Cell[*core.Result] {
		return []Cell[*core.Result]{
			perturbedBeff(prof, 1, 0),
			perturbedBeff(prof, 1, 1),
			perturbedBeff(nil, 0, 0), // baseline
		}
	}
	cold := Sweep(mk(), Options{Workers: 3, Cache: cache})
	if err := Err(cold); err != nil {
		t.Fatal(err)
	}
	if cold[0].Value.Beff >= cold[2].Value.Beff {
		t.Errorf("perturbed b_eff %v should sit below baseline %v", cold[0].Value.Beff, cold[2].Value.Beff)
	}
	warm := Sweep(mk(), Options{Workers: 1, Cache: cache})
	if err := Err(warm); err != nil {
		t.Fatal(err)
	}
	for i := range warm {
		if !warm[i].Cached {
			t.Fatalf("cell %s missed the cache on the warm run", warm[i].Key)
		}
		if warm[i].Value.Beff != cold[i].Value.Beff {
			t.Fatalf("cell %s: cached value %v differs from computed %v", warm[i].Key, warm[i].Value.Beff, cold[i].Value.Beff)
		}
	}
}

// TestSummarizeReps pins the repetition summary the CLIs print.
func TestSummarizeReps(t *testing.T) {
	r := SummarizeReps([]float64{3, 1, 2})
	if r.Summary.N != 3 || r.Summary.Min != 1 || r.Summary.Max != 3 || r.Summary.Median != 2 {
		t.Errorf("summary wrong: %+v", r.Summary)
	}
	if r.MaxOverReps != 3 {
		t.Errorf("MaxOverReps = %v, want the paper's max-over-repetitions 3", r.MaxOverReps)
	}
	if r.Summary.CV <= 0 {
		t.Errorf("CV = %v, want positive spread", r.Summary.CV)
	}
	one := SummarizeReps([]float64{5})
	if one.Summary.CV != 0 || one.MaxOverReps != 5 {
		t.Errorf("single rep: %+v", one)
	}
}
