package runner

import (
	"fmt"

	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/mpi"
	"github.com/hpcbench/beff/internal/obs"
	"github.com/hpcbench/beff/internal/perturb"
	"github.com/hpcbench/beff/internal/simfs"
	"github.com/hpcbench/beff/internal/workload"
)

// Prebuilt cells for the two benchmarks and the workload grammar, so
// every command gets parallelism and caching from the same few lines:
// a CellSpec describes the cell, and BeffCell, BeffIOCell and
// WorkloadCell turn it into a Cell of their result type. Each cell
// builds its world, network and filesystem inside Run — fresh engine
// per cell, nothing shared.

// CellSpec describes one sweep cell: a machine at one partition size,
// the benchmark's options, and optionally one repetition under a
// perturbation profile. Each constructor reads only the fields its
// benchmark uses.
type CellSpec struct {
	// Machine is a registry profile key. Config, when non-nil, is a
	// declarative machine used instead (the cmd/sensitivity case); the
	// whole config enters the fingerprint, so any knob change is a
	// cache miss.
	Machine string
	Config  *machine.ConfigFile

	// Procs is the partition size. A Config cell clamps it to the
	// config's MaxProcs at run time.
	Procs int

	// Beff holds BeffCell's options; MemoryPerProc defaults from the
	// profile at run time, like beff.MeasureBandwidth. IO holds
	// BeffIOCell's; MPart defaults from the profile before
	// fingerprinting, so explicit and defaulted options cache
	// identically. Workload is WorkloadCell's canonicalized spec.
	Beff     core.Options
	IO       beffio.Options
	Workload *workload.Spec

	// Perturb, when enabled, makes the cell repetition Rep under the
	// profile, seeded with perturb.RepSeed(Seed, Rep): the profile and
	// that seed enter the fingerprint and the key gains /rep<n>, so
	// repetitions and base seeds never alias each other's cached
	// results. A nil or disabled profile leaves the plain fingerprint,
	// so baselines share the cache with plain sweeps. Seed is the
	// perturbation base seed, separate from Beff.Seed.
	Perturb *perturb.Profile
	Seed    int64
	Rep     int

	// Shards > 1 runs a b_eff cell on the sharded conservative-parallel
	// executor, and Obs (optional) receives its beff_shard_*
	// instruments. Both are execution knobs — results are identical at
	// every value — so they stay out of the fingerprint: a sharded run
	// hits the cache entry a sequential run wrote, and vice versa.
	Shards int
	Obs    *obs.Registry
}

// fingerprint identifies a cell: the machine (by registry key or full
// declarative config), the partition size and the benchmark options —
// core.Options for b_eff, beffio.Options for b_eff_io and workload
// cells. Together with the cache's code-version salt this is the
// complete input of the simulation. The omitempty fields keep older
// fingerprints, and their cached entries, byte-identical: Workload
// (the canonicalized AST) appears only in workload cells, Perturb and
// PerturbSeed only in perturbed ones.
type fingerprint[O any] struct {
	Bench   string
	Machine string              `json:",omitempty"`
	Config  *machine.ConfigFile `json:",omitempty"`
	Procs   int
	Options O

	Workload *workload.Spec `json:",omitempty"`

	Perturb     *perturb.Profile `json:",omitempty"`
	PerturbSeed int64            `json:",omitempty"`
}

// BeffCell measures b_eff. A perturbed cell on the sharded executor
// disables chain speculation (the fault schedule samples absolute
// virtual time, which a time-translated speculative world would get
// wrong) and re-simulates every chain at the exact frontier instead —
// byte-identical, at sequential speed.
func BeffCell(s CellSpec) Cell[*core.Result] {
	s.Workload = nil
	return newCell(s, "beff", s.Beff, func(s *CellSpec) (*core.Result, error) {
		p, procs, err := s.profile()
		if err != nil {
			return nil, err
		}
		opt := s.Beff
		if opt.MemoryPerProc == 0 && opt.LmaxOverride == 0 {
			opt.MemoryPerProc = p.MemoryPerProc
		}
		build := func([]des.Time) (mpi.WorldConfig, error) {
			w, _, err := s.world(p, procs, false)
			return w, err
		}
		if s.Shards <= 1 {
			w, err := build(nil)
			if err != nil {
				return nil, err
			}
			return core.Run(w, opt)
		}
		res, _, err := core.RunSharded(build, opt, core.ShardOptions{Shards: s.Shards, NoSpec: s.Perturb != nil, Obs: s.Obs})
		return res, err
	})
}

// BeffIOCell measures b_eff_io against a fresh instance of the
// profile's filesystem, honouring its I/O-placement policy.
func BeffIOCell(s CellSpec) Cell[*beffio.Result] {
	s.Workload = nil
	if s.IO.MPart == 0 {
		if p, _, err := s.profile(); err == nil {
			s.IO.MPart = p.MPart()
		}
	}
	return newCell(s, "beffio", s.IO, func(s *CellSpec) (*beffio.Result, error) {
		w, fs, err := s.ioWorld()
		if err != nil {
			return nil, err
		}
		return beffio.Run(w, fs, s.IO)
	})
}

// WorkloadCell runs the spec's Workload pattern tree, which must be
// set. Two requests with byte-different JSON but the same canonical
// AST share a cache entry, and any change to the tree is a miss. IO
// does not apply and stays zero in the fingerprint.
func WorkloadCell(s CellSpec) Cell[*workload.Result] {
	return newCell(s, "workload", beffio.Options{}, func(s *CellSpec) (*workload.Result, error) {
		w, fs, err := s.ioWorld()
		if err != nil {
			return nil, err
		}
		return workload.Run(w, fs, s.Workload)
	})
}

// newCell is what the constructors share: it treats a disabled profile
// as none, takes a private copy of Config (which then names the
// machine, so later edits to the caller's config cannot reach the
// cell), and builds the key and the fingerprint once.
func newCell[T, O any](s CellSpec, bench string, opt O, run func(*CellSpec) (T, error)) Cell[T] {
	if s.Perturb != nil && !s.Perturb.Enabled() {
		s.Perturb = nil
	}
	name := s.Machine
	if s.Config != nil {
		cf := *s.Config
		s.Config, s.Machine, name = &cf, "", cf.Key
	}
	fp := fingerprint[O]{Bench: bench, Machine: s.Machine, Config: s.Config, Procs: s.Procs,
		Options: opt, Workload: s.Workload, Perturb: s.Perturb}
	if s.Workload != nil {
		name = s.Workload.Name + ":" + name
	}
	key := fmt.Sprintf("%s:%s@%d", bench, name, s.Procs)
	if s.Perturb != nil {
		fp.PerturbSeed = perturb.RepSeed(s.Seed, s.Rep)
		key += fmt.Sprintf("/rep%d", s.Rep)
	}
	return Cell[T]{Key: key, Fingerprint: fp, Run: func() (T, error) { return run(&s) }}
}

// profile resolves the cell's machine and partition size: the registry
// profile, or the built Config with Procs clamped to its MaxProcs.
func (s *CellSpec) profile() (*machine.Profile, int, error) {
	if s.Config == nil {
		p, err := machine.Lookup(s.Machine)
		return p, s.Procs, err
	}
	p, err := s.Config.Build()
	if err != nil {
		return nil, 0, err
	}
	return p, min(s.Procs, p.MaxProcs), nil
}

// world builds a fresh world for the partition — the I/O world plus a
// fresh instance of the profile's filesystem when withFS is set — and
// applies the perturbation profile to both.
func (s *CellSpec) world(p *machine.Profile, procs int, withFS bool) (w mpi.WorldConfig, fs *simfs.FS, err error) {
	if withFS {
		if w, err = p.BuildIOWorld(procs); err == nil {
			fs, err = p.BuildFS()
		}
	} else {
		w, err = p.BuildWorld(procs)
	}
	if err != nil {
		return w, nil, err
	}
	s.Perturb.Apply(w.Net, fs, perturb.RepSeed(s.Seed, s.Rep))
	return w, fs, nil
}

// ioWorld resolves the machine and builds the I/O cells' world and
// filesystem.
func (s *CellSpec) ioWorld() (mpi.WorldConfig, *simfs.FS, error) {
	p, procs, err := s.profile()
	if err != nil {
		return mpi.WorldConfig{}, nil, err
	}
	return s.world(p, procs, true)
}
