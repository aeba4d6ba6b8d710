package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/check"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/mpi"
	"github.com/hpcbench/beff/internal/simfs"
	"github.com/hpcbench/beff/internal/workload"
)

// setupReps is how many times a sweep pass builds each cell's machine.
// Each build is timed; only the last one runs. A build takes well
// under a millisecond, so it is repeated enough for setup_s to get a
// steady median.
const setupReps = 100

// sweep runs simulation cells one at a time, cold, with no cache.
type sweep struct {
	name  string
	pinAt string // pin key prefix, "<size>/<workload>/"
	pins  map[string]float64
	cells []*simCell
}

// simCell is one cell of a sweep: b_eff, Table 2 b_eff_io, or a
// grammar workload spec, on one machine at one partition size.
type simCell struct {
	name  string // "<machine>/<procs>" or "<spec>@<machine>/<procs>"
	bench string // "beff", "beffio" or "workload"
	prof  *machine.Profile
	procs int
	beff  core.Options
	io    beffio.Options
	spec  *workload.Spec
}

// built is a cell's machine, ready to run once.
type built struct {
	w  mpi.WorldConfig
	fs *simfs.FS
	io beffio.Options
}

type outcome struct {
	beff *core.Result
	io   *beffio.Result
	wl   *workload.Result
	err  error
}

func newBeffSweep(cfg config, pins map[string]float64) (*sweep, error) {
	type point struct {
		key   string
		procs int
	}
	// One cell per fabric family simnet models differently: torus,
	// fat tree, SMP cluster, dragonfly and shared bus.
	points := []point{{"t3e", 64}, {"cluster", 64}, {"sr8000-rr", 64}, {"dragonfly", 64}, {"sx4", 32}}
	loop, lmax := 4, int64(0)
	if cfg.size == "tiny" {
		points = []point{{"t3e", 8}, {"cluster", 8}, {"sr8000-rr", 8}, {"dragonfly", 8}, {"sx4", 8}}
		loop, lmax = 2, 1<<16
	}
	s := newSweep(cfg, pins)
	for _, pt := range points {
		p, err := machine.Lookup(pt.key)
		if err != nil {
			return nil, err
		}
		s.cells = append(s.cells, &simCell{
			name: fmt.Sprintf("%s/%d", pt.key, pt.procs), bench: "beff", prof: p, procs: pt.procs,
			beff: core.Options{MemoryPerProc: p.MemoryPerProc, LmaxOverride: lmax, Seed: cfg.seed, MaxLooplength: loop, Reps: 1},
		})
	}
	return s, nil
}

func newBeffIOSweep(cfg config, pins map[string]float64) (*sweep, error) {
	tableProcs, specProcs, t := 16, 32, 0.5
	if cfg.size == "tiny" {
		tableProcs, specProcs, t = 4, 4, 0.2
	}
	s := newSweep(cfg, pins)
	for _, key := range []string{"t3e", "sp", "bb"} {
		p, err := machine.Lookup(key)
		if err != nil {
			return nil, err
		}
		s.cells = append(s.cells, &simCell{
			name: fmt.Sprintf("%s/%d", key, tableProcs), bench: "beffio", prof: p, procs: tableProcs,
			io: beffio.Options{T: des.DurationOf(t), MPart: p.MPart()},
		})
	}
	// Write-heavy and read-heavy patterns on the same file layer, and
	// a read/write mix on another fabric.
	for _, sc := range []struct{ file, key string }{
		{"bursty.json", "bb"}, {"zipf-hot.json", "bb"}, {"mixed.json", "dragonfly"},
	} {
		spec, err := workload.ParseFile(filepath.Join(cfg.root, "examples", "workloads", sc.file))
		if err != nil {
			return nil, err
		}
		if err := spec.Runnable(); err != nil {
			return nil, fmt.Errorf("%s: %w", sc.file, err)
		}
		// The default seed runs each spec exactly as committed.
		spec.Seed += cfg.seed - 1
		p, err := machine.Lookup(sc.key)
		if err != nil {
			return nil, err
		}
		s.cells = append(s.cells, &simCell{
			name: fmt.Sprintf("%s@%s/%d", spec.Name, sc.key, specProcs), bench: "workload", prof: p, procs: specProcs, spec: spec,
		})
	}
	return s, nil
}

func newSweep(cfg config, pins map[string]float64) *sweep {
	s := &sweep{name: cfg.workload, pins: pins, pinAt: cfg.size + "/" + cfg.workload + "/"}
	if cfg.seed != 1 {
		s.pins = nil // headlines are pinned at the default seed only
	}
	return s
}

func (s *sweep) close() error { return nil }

func (s *sweep) pass(index int, tr *tracer) (*passResult, error) {
	// One P: the cells run one at a time, so the simulation needs one
	// CPU. The process's CPU time is then the simulation's own work,
	// with no scheduler thread spinning on an idle second P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := &passResult{setups: make([]time.Duration, setupReps)}
	ps := tr.begin(fmt.Sprintf("%s pass %d", s.name, index), "workload", 0)
	steal0 := readSteal()
	outs := make([]outcome, len(s.cells))
	fss := make([]*simfs.FS, len(s.cells))
	// Each cell's set-up comes just before its run, so that the set-up
	// samples spread over the whole pass. The r-th set-up of the pass
	// is the r-th build of every cell.
	for i, c := range s.cells {
		// Collect the previous phase's garbage so that it is not
		// charged to this timed one.
		runtime.GC()
		var b built
		for r := range p.setups {
			c0 := cpuTime()
			var err error
			if b, err = c.build(tr, ps.id); err != nil {
				return nil, err
			}
			p.setups[r] += cpuTime() - c0
		}
		fss[i] = b.fs

		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cs := tr.begin(c.name, "cell", ps.id)
		w0, c0 := time.Now(), cpuTime()
		outs[i] = c.run(b, tr, cs.id)
		d := cpuTime() - c0
		p.wall += time.Since(w0)
		cs.end()
		runtime.ReadMemStats(&m1)
		p.run += d
		p.ops = append(p.ops, op{ms: ms(d), miss: true})
		p.mallocs += m1.Mallocs - m0.Mallocs
		p.msgs += b.w.Net.Messages()
	}
	p.steal = readSteal() - steal0
	for _, d := range p.setups {
		tr.builds(d)
	}
	ps.end()
	tr.untimed()

	// Audit outside the timed region.
	for i, c := range s.cells {
		if fss[i] != nil {
			tr.seeks(fss[i].Seeks())
		}
		if err := s.audit(c, outs[i]); err != nil {
			p.ops[i].failed = true
			fmt.Fprintf(os.Stderr, "perfbench: %s %s: %v\n", s.name, c.name, err)
		}
	}
	p.layers = tr.done()
	return p, nil
}

// build makes the cell's machine through the profile's public
// builders; this is the cell's set-up.
func (c *simCell) build(tr *tracer, parent int64) (built, error) {
	sp := tr.begin("machine.Build "+c.name, "layer", parent)
	var b built
	var err error
	if c.bench == "beff" {
		b.w, err = c.prof.BuildWorld(c.procs)
	} else {
		b.w, err = c.prof.BuildIOWorld(c.procs)
		if err == nil {
			b.fs, err = c.prof.BuildFS()
		}
	}
	sp.end()
	if err != nil {
		return built{}, fmt.Errorf("%s: %w", c.name, err)
	}
	b.io = c.io
	tr.instrument(&b.w, b.fs)
	tr.instrumentIO(&b.io.Info)
	return b, nil
}

func (c *simCell) run(b built, tr *tracer, parent int64) outcome {
	var o outcome
	layer := map[string]string{"beff": "core", "beffio": "beffio", "workload": "workload"}[c.bench]
	sp := tr.begin(layer+".Run", "layer", parent)
	t := cpuTime()
	switch c.bench {
	case "beff":
		o.beff, o.err = core.Run(b.w, c.beff)
	case "beffio":
		o.io, o.err = beffio.Run(b.w, b.fs, b.io)
	case "workload":
		o.wl, o.err = workload.Run(b.w, b.fs, c.spec)
	}
	tr.call(layer, cpuTime()-t)
	sp.end()
	return o
}

// audit checks one cell's result: the check package's invariant audit
// for b_eff and b_eff_io, internal consistency for a grammar workload,
// and at the default seed the headline against its pin, bit-exact.
func (s *sweep) audit(c *simCell, o outcome) error {
	if o.err != nil {
		return o.err
	}
	chk := check.New()
	var headline float64
	switch c.bench {
	case "beff":
		chk.VerifyBeff(o.beff)
		headline = o.beff.Beff
	case "beffio":
		chk.VerifyBeffIO(o.io)
		headline = o.io.BeffIO
	case "workload":
		if err := verifyWorkload(o.wl, c.procs); err != nil {
			return err
		}
		headline = o.wl.BW
	}
	if err := chk.Finish(); err != nil {
		return err
	}
	if s.pins == nil {
		return nil
	}
	want, ok := s.pins[s.pinAt+c.name]
	switch {
	case !ok:
		return fmt.Errorf("no pinned headline %q (got %v)", s.pinAt+c.name, headline)
	case headline != want:
		return fmt.Errorf("headline %v differs from pinned %v", headline, want)
	}
	return nil
}

// verifyWorkload checks a grammar workload result for internal
// consistency: positive finite rates, and totals that are the sums of
// their parts.
func verifyWorkload(r *workload.Result, procs int) error {
	if r.Procs != procs {
		return fmt.Errorf("ran on %d procs, want %d", r.Procs, procs)
	}
	if len(r.Phases) == 0 {
		return errors.New("no phases")
	}
	var bytes int64
	for _, ph := range r.Phases {
		if ph.Bytes != ph.WriteBytes+ph.ReadBytes {
			return fmt.Errorf("phase %s: %d bytes, but %d written + %d read", ph.Name, ph.Bytes, ph.WriteBytes, ph.ReadBytes)
		}
		bytes += ph.Bytes
	}
	if bytes != r.TotalBytes {
		return fmt.Errorf("total %d bytes, phases sum to %d", r.TotalBytes, bytes)
	}
	if !(r.BW > 0) || math.IsInf(r.BW, 0) {
		return fmt.Errorf("bandwidth %v is not positive and finite", r.BW)
	}
	return nil
}
