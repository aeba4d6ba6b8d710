package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/obs"
	"github.com/hpcbench/beff/internal/perturb"
	"github.com/hpcbench/beff/internal/runner"
	"github.com/hpcbench/beff/internal/workload"
)

// SweepRequest is the body of POST /api/v1/sweeps: the axes of a
// sweep (machines × procs × repetitions) plus the benchmark options.
// The request expands into one cell per axis point; every cell is an
// ordinary runner cell, so it fingerprints, caches and dedupes exactly
// like the same cell run through cmd/beff, cmd/beffio or
// cmd/robustness.
type SweepRequest struct {
	// Fleet turns the request into a fleet characterization sweep:
	// machines defaults to every registered profile, procs becomes a
	// clamped ladder (entries above a machine's MaxProcs collapse onto
	// it), reps counts perturbed repetitions per point (0 with no
	// perturb preset), and the job's result carries an assembled
	// fleet report alongside the per-cell values. Fleet sweeps measure
	// b_eff only.
	Fleet bool `json:"fleet,omitempty"`

	// Bench selects the benchmark: "beff", "beffio" or "workload"
	// (fleet requests default it to "beff").
	Bench string `json:"bench"`

	// Workload is the pattern-AST spec of a bench "workload" request
	// (see docs/API.md for the grammar). It is canonicalized before
	// fingerprinting, so byte-different encodings of the same AST
	// share one cache entry and dedupe in flight. Required when Bench
	// is "workload", rejected otherwise.
	Workload *workload.Spec `json:"workload,omitempty"`

	// Machines are registry profile keys (see cmd/beff -list). The
	// HTTP API deliberately accepts only registered profiles — ad-hoc
	// JSON machine definitions would make the service an arbitrary
	// compute endpoint. A fleet request may leave it empty for every
	// registered profile.
	Machines []string `json:"machines"`

	// Procs are the partition sizes to sweep.
	Procs []int `json:"procs"`

	// Reps is the number of perturbed repetitions per (machine, procs)
	// point; repetition r runs under perturb.RepSeed(Seed, r). Default
	// 1. With no perturbation profile all repetitions share one
	// fingerprint and the in-flight dedupe collapses them to a single
	// execution.
	Reps int `json:"reps,omitempty"`

	// Perturb names a fault-injection preset (see cmd/robustness
	// -list-presets); empty runs unperturbed. File-based profiles are
	// not accepted over HTTP.
	Perturb string `json:"perturb,omitempty"`

	// Seed is the base seed for the random polygons and the perturbation
	// schedule. Default 1.
	Seed int64 `json:"seed,omitempty"`

	// b_eff knobs (defaults match cmd/beff).
	MaxLooplength int   `json:"max_looplength,omitempty"` // default 8
	LmaxOverride  int64 `json:"lmax_override,omitempty"`  // 0 = memory rule
	InnerReps     int   `json:"inner_reps,omitempty"`     // in-run repetitions, default 1
	SkipAnalysis  bool  `json:"skip_analysis,omitempty"`

	// Shards is the per-cell worker count of the sharded executor
	// (b_eff only; default 1 = sequential engine). An execution knob,
	// not a simulation input: results and cache fingerprints are
	// identical at every value, so it never splits the dedupe or the
	// cache. Size it against the daemon's -j worker pool — the two
	// multiply (see OPERATIONS.md).
	Shards int `json:"shards,omitempty"`

	// b_eff_io knobs (defaults match cmd/robustness -io).
	TSeconds float64 `json:"t_seconds,omitempty"` // scheduled virtual time, default 60

	// Client identifies the submitter for per-client admission limits;
	// the X-Beff-Client header takes precedence. Empty means
	// "anonymous".
	Client string `json:"client,omitempty"`
}

// normalize applies defaults in place.
func (r *SweepRequest) normalize() {
	if r.Fleet && r.Bench == "" {
		r.Bench = "beff"
	}
	if r.Reps == 0 && !r.Fleet {
		r.Reps = 1
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Workload != nil {
		r.Workload.Normalize()
	}
	if r.MaxLooplength == 0 {
		r.MaxLooplength = 8
	}
	if r.InnerReps == 0 {
		r.InnerReps = 1
	}
	if r.Shards == 0 {
		r.Shards = 1
	}
	if r.TSeconds == 0 {
		r.TSeconds = 60
	}
}

// validate rejects malformed requests with a message fit for the
// error response body.
func (r *SweepRequest) validate() error {
	if r.Fleet {
		if r.Bench != "beff" {
			return fmt.Errorf("fleet sweeps measure %q only, got bench %q", "beff", r.Bench)
		}
		if r.Reps < 0 {
			return fmt.Errorf("reps must be >= 0, got %d", r.Reps)
		}
	} else {
		if r.Bench != "beff" && r.Bench != "beffio" && r.Bench != "workload" {
			return fmt.Errorf("bench must be %q, %q or %q, got %q", "beff", "beffio", "workload", r.Bench)
		}
		if len(r.Machines) == 0 {
			return fmt.Errorf("machines must name at least one profile")
		}
		if len(r.Procs) == 0 {
			return fmt.Errorf("procs must list at least one partition size")
		}
		if r.Reps < 1 {
			return fmt.Errorf("reps must be >= 1, got %d", r.Reps)
		}
	}
	for _, key := range r.Machines {
		if _, err := machine.Lookup(key); err != nil {
			return err
		}
	}
	for _, p := range r.Procs {
		if p < 1 {
			return fmt.Errorf("procs entries must be >= 1, got %d", p)
		}
		if r.Fleet && p < 2 {
			return fmt.Errorf("fleet procs ladder entries must be >= 2, got %d", p)
		}
	}
	if r.Seed < 1 {
		return fmt.Errorf("seed must be >= 1, got %d", r.Seed)
	}
	if r.MaxLooplength < 1 {
		return fmt.Errorf("max_looplength must be >= 1, got %d", r.MaxLooplength)
	}
	if r.InnerReps < 1 {
		return fmt.Errorf("inner_reps must be >= 1, got %d", r.InnerReps)
	}
	if r.Shards < 1 {
		return fmt.Errorf("shards must be >= 1, got %d", r.Shards)
	}
	if r.TSeconds <= 0 {
		return fmt.Errorf("t_seconds must be positive, got %v", r.TSeconds)
	}
	if r.Perturb != "" {
		if _, err := perturb.Preset(r.Perturb); err != nil {
			return fmt.Errorf("unknown perturb preset %q (have: %s)", r.Perturb, strings.Join(perturb.Presets(), ", "))
		}
	}
	switch {
	case r.Bench == "workload" && r.Workload == nil:
		return fmt.Errorf("bench %q needs a workload spec", "workload")
	case r.Bench != "workload" && r.Workload != nil:
		return fmt.Errorf("workload specs apply to bench %q only, got bench %q", "workload", r.Bench)
	case r.Workload != nil:
		if err := r.Workload.Validate(); err != nil {
			return err
		}
		// Fill-up chunks are table notation; the executor would reject
		// them per cell, but admission is the right place to say so.
		if err := r.Workload.Runnable(); err != nil {
			return err
		}
	}
	return nil
}

// profile resolves the request's perturbation preset; nil when none
// is named.
func (r *SweepRequest) profile() (*perturb.Profile, error) {
	if r.Perturb == "" {
		return nil, nil
	}
	return perturb.Preset(r.Perturb)
}

// fleetSpec builds the runner spec of a fleet request. Perturbation
// presets resolve here; the spec's own Normalize (called by CellCount
// and FleetCells) applies ladder defaults and the reps/perturb
// coupling.
func (r *SweepRequest) fleetSpec(reg *obs.Registry) (*runner.FleetSpec, error) {
	prof, err := r.profile()
	if err != nil {
		return nil, err
	}
	return &runner.FleetSpec{
		Machines:      r.Machines,
		Procs:         r.Procs,
		Seed:          r.Seed,
		Reps:          r.Reps,
		Perturb:       prof,
		PerturbName:   r.Perturb,
		MaxLooplength: r.MaxLooplength,
		InnerReps:     r.InnerReps,
		SkipAnalysis:  r.SkipAnalysis,
		LmaxOverride:  r.LmaxOverride,
		Shards:        r.Shards,
		Obs:           reg,
	}, nil
}

// cellCount is the number of cells tasks expands a non-fleet request
// into — machines × procs × reps — computed without expanding it and
// saturating instead of overflowing.
func (r *SweepRequest) cellCount() int {
	return runner.CellProduct(len(r.Machines), len(r.Procs), r.Reps)
}

// tasks expands the request into pool tasks: a fleet request through
// runner.FleetCells, any other one cell per (machine, procs, rep) in
// deterministic axis order. The cache is threaded into every task so
// HTTP-served cells read and repair the same .beffcache/ entries as
// CLI sweeps.
func (r *SweepRequest) tasks(fleet *runner.FleetSpec, cache *runner.Cache, reg *obs.Registry) ([]runner.Task, []runner.FleetPointRef, error) {
	if fleet != nil {
		cells, refs, err := runner.FleetCells(fleet)
		tasks := make([]runner.Task, len(cells))
		for i, c := range cells {
			tasks[i] = runner.JSONTask(c, cache)
		}
		return tasks, refs, err
	}
	prof, err := r.profile()
	if err != nil {
		return nil, nil, err
	}
	// Each constructor reads only its benchmark's fields of the spec.
	// Shards is one of them for b_eff only: the I/O executor is
	// sequential, and the knob never enters a fingerprint, so requests
	// at any shard count share cache entries.
	spec := runner.CellSpec{
		Beff: core.Options{
			LmaxOverride:  r.LmaxOverride,
			Seed:          r.Seed,
			MaxLooplength: r.MaxLooplength,
			Reps:          r.InnerReps,
			SkipAnalysis:  r.SkipAnalysis,
		},
		IO:       beffio.Options{T: des.DurationOf(r.TSeconds)},
		Workload: r.Workload,
		Perturb:  prof,
		Seed:     r.Seed,
		Shards:   r.Shards,
		Obs:      reg,
	}
	var task func(runner.CellSpec) runner.Task
	switch r.Bench {
	case "beff":
		task = func(s runner.CellSpec) runner.Task { return runner.JSONTask(runner.BeffCell(s), cache) }
	case "beffio":
		task = func(s runner.CellSpec) runner.Task { return runner.JSONTask(runner.BeffIOCell(s), cache) }
	case "workload":
		task = func(s runner.CellSpec) runner.Task { return runner.JSONTask(runner.WorkloadCell(s), cache) }
	default:
		return nil, nil, fmt.Errorf("bench %q", r.Bench)
	}
	tasks := make([]runner.Task, 0, r.cellCount())
	for _, key := range r.Machines {
		for _, procs := range r.Procs {
			for rep := 0; rep < r.Reps; rep++ {
				spec.Machine, spec.Procs, spec.Rep = key, procs, rep
				tasks = append(tasks, task(spec))
			}
		}
	}
	return tasks, nil, nil
}

// sweepPlan is a submitted sweep up to admission: the validated
// request, its cell count, and — only when the count fits the queue —
// its expanded tasks (plus the fleet spec and point refs of a fleet
// request).
type sweepPlan struct {
	req   SweepRequest
	cells int
	tasks []runner.Task
	fleet *runner.FleetSpec
	refs  []runner.FleetPointRef
}

// planSweep is the submit path up to admission: decode the body
// (unknown fields rejected), apply defaults, validate, and count the
// cells arithmetically. Only a sweep of at most limit cells is
// expanded: a larger one can never be admitted, and expanding it first
// would let a single request with huge axes (reps near 1<<62, or tens
// of thousands of machines × procs) exhaust the daemon's memory. A
// failure reports its API error code.
func planSweep(body io.Reader, limit int, cache *runner.Cache, reg *obs.Registry) (*sweepPlan, string, error) {
	p := &sweepPlan{}
	dec := json.NewDecoder(io.LimitReader(body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p.req); err != nil {
		return nil, "bad_request", fmt.Errorf("decode sweep request: %w", err)
	}
	p.req.normalize()
	if err := p.req.validate(); err != nil {
		return nil, "invalid_request", err
	}
	var err error
	if p.req.Fleet {
		if p.fleet, err = p.req.fleetSpec(reg); err == nil {
			p.cells, err = p.fleet.CellCount()
		}
	} else {
		p.cells = p.req.cellCount()
	}
	if err == nil && p.cells <= limit {
		p.tasks, p.refs, err = p.req.tasks(p.fleet, cache, reg)
	}
	if err != nil {
		return nil, "invalid_request", err
	}
	return p, "", nil
}
