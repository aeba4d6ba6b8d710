package runner

// Fleet sweeps: one specification expanding to b_eff cells for every
// registered machine profile across a procs ladder, with optional
// perturbed repetitions per point, and an assembler folding the swept
// values into a report.FleetReport. The expansion is deterministic —
// machine order from machine.Profiles(), ladder order as given — and
// the cells are ordinary sweep cells, so a fleet run parallelises
// over -j, shards over -shards, and shares the result cache with
// every other command measuring the same points.

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/obs"
	"github.com/hpcbench/beff/internal/perturb"
	"github.com/hpcbench/beff/internal/report"
)

// FleetSpec describes a fleet-wide characterization sweep.
type FleetSpec struct {
	// Machines are profile keys; empty means every registered profile,
	// in machine.Profiles() order.
	Machines []string

	// Procs is the partition ladder. Entries above a machine's
	// MaxProcs clamp to it (then dedupe), so every machine appears in
	// the report at the largest partition it supports. Empty means
	// {4, 8}.
	Procs []int

	// Seed drives the random patterns and derives perturbation-rep
	// seeds; zero means 1.
	Seed int64

	// Reps is the number of perturbed repetitions per point; zero
	// disables perturbation even with a profile set.
	Reps int

	// Perturb is the fault-injection profile for the repetitions;
	// PerturbName labels it in the report.
	Perturb     *perturb.Profile
	PerturbName string

	// MaxLooplength, InnerReps, SkipAnalysis and LmaxOverride map to
	// core.Options; MaxLooplength zero means 2 (the fleet default —
	// deterministic simulation makes longer loops pure cost).
	MaxLooplength int
	InnerReps     int
	SkipAnalysis  bool
	LmaxOverride  int64

	// Shards is the per-cell conservative-parallel shard count
	// (execution knob only — results and cache entries are identical
	// at every value).
	Shards int

	// Obs optionally receives the sharded executor's instruments.
	Obs *obs.Registry
}

// FleetPointRef ties one (machine, procs) point to its cells in the
// expanded slice: Base indexes the unperturbed cell, Reps the
// perturbed repetitions in repetition order.
type FleetPointRef struct {
	Machine string
	Procs   int
	Base    int
	Reps    []int
}

// Normalize fills defaults and validates the machine keys. It is
// idempotent; FleetCells calls it for you.
func (s *FleetSpec) Normalize() error {
	if len(s.Machines) == 0 {
		for _, p := range machine.Profiles() {
			s.Machines = append(s.Machines, p.Key)
		}
	}
	for _, k := range s.Machines {
		if _, err := machine.Lookup(k); err != nil {
			return err
		}
	}
	if len(s.Procs) == 0 {
		s.Procs = []int{4, 8}
	}
	sort.Ints(s.Procs)
	for _, n := range s.Procs {
		if n < 2 {
			return fmt.Errorf("fleet: procs ladder entry %d below the 2-process minimum", n)
		}
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.MaxLooplength == 0 {
		s.MaxLooplength = 2
	}
	if s.InnerReps == 0 {
		s.InnerReps = 1
	}
	if s.Shards == 0 {
		s.Shards = 1
	}
	if s.Perturb != nil && !s.Perturb.Enabled() {
		s.Perturb = nil
	}
	if s.Perturb == nil || s.Reps <= 0 {
		s.Perturb, s.PerturbName, s.Reps = nil, "", 0
	}
	return nil
}

// ladderFor clamps the spec's ladder to one machine: entries above
// MaxProcs collapse onto MaxProcs, duplicates drop, order stays
// ascending. Every machine keeps at least one point.
func ladderFor(p *machine.Profile, ladder []int) []int {
	var out []int
	for _, n := range ladder {
		if n > p.MaxProcs {
			n = p.MaxProcs
		}
		if len(out) == 0 || out[len(out)-1] != n {
			out = append(out, n)
		}
	}
	return out
}

// FleetCells expands the spec into sweep cells plus the point refs
// the assembler needs. Cell order is deterministic: machines in spec
// order, ladder ascending, baseline before repetitions.
func FleetCells(s *FleetSpec) ([]Cell[*core.Result], []FleetPointRef, error) {
	if err := s.Normalize(); err != nil {
		return nil, nil, err
	}
	opt := core.Options{
		Seed:          s.Seed,
		MaxLooplength: s.MaxLooplength,
		Reps:          s.InnerReps,
		SkipAnalysis:  s.SkipAnalysis,
		LmaxOverride:  s.LmaxOverride,
	}
	var cells []Cell[*core.Result]
	var refs []FleetPointRef
	for _, key := range s.Machines {
		p, err := machine.Lookup(key)
		if err != nil {
			return nil, nil, err
		}
		for _, procs := range ladderFor(p, s.Procs) {
			ref := FleetPointRef{Machine: key, Procs: procs, Base: len(cells)}
			spec := CellSpec{Machine: key, Procs: procs, Beff: opt, Shards: s.Shards}
			cells = append(cells, BeffCell(spec))
			spec.Perturb, spec.Seed, spec.Obs = s.Perturb, s.Seed, s.Obs
			for spec.Rep = 0; spec.Rep < s.Reps; spec.Rep++ {
				ref.Reps = append(ref.Reps, len(cells))
				cells = append(cells, BeffCell(spec))
			}
			refs = append(refs, ref)
		}
	}
	return cells, refs, nil
}

// CellCount normalizes the spec and counts the cells FleetCells would
// expand it into — every machine's clamped ladder times the baseline
// plus Reps — without expanding it, saturating at math.MaxInt. The
// service bounds a fleet request by it.
func (s *FleetSpec) CellCount() (int, error) {
	if err := s.Normalize(); err != nil {
		return 0, err
	}
	rungs := slices.Compact(slices.Clone(s.Procs))
	points := 0
	for _, key := range s.Machines {
		p, _ := machine.Lookup(key) // Normalize checked every key
		// ladderFor keeps the rungs below MaxProcs, plus MaxProcs
		// itself when any rung reaches it.
		below, _ := slices.BinarySearch(rungs, p.MaxProcs)
		points += below + min(len(rungs)-below, 1)
	}
	return CellProduct(points, min(s.Reps, math.MaxInt-1)+1), nil
}

// CellProduct is the cell count of a sweep over axes of the given
// lengths: their product, saturating at math.MaxInt, so a request with
// absurd axes can be counted (and refused) without overflow.
func CellProduct(axes ...int) int {
	n := 1
	for _, a := range axes {
		switch {
		case a <= 0:
			return 0
		case n > math.MaxInt/a:
			n = math.MaxInt
		default:
			n *= a
		}
	}
	return n
}

// AssembleFleet folds the swept values back into the fleet report.
// values must be FleetCells' cells resolved in order (Values on the
// sweep results after Err cleared them).
func AssembleFleet(s *FleetSpec, refs []FleetPointRef, values []*core.Result) (*report.FleetReport, error) {
	fr := &report.FleetReport{
		Seed:          s.Seed,
		MaxLooplength: s.MaxLooplength,
		Reps:          s.Reps,
		Perturb:       s.PerturbName,
		ProcsLadder:   s.Procs,
	}
	byMachine := map[string][]report.FleetPoint{}
	for _, ref := range refs {
		if ref.Base >= len(values) {
			return nil, fmt.Errorf("fleet: ref %s@%d beyond %d values", ref.Machine, ref.Procs, len(values))
		}
		res := values[ref.Base]
		pt := report.FleetPoint{
			Procs:      res.Procs,
			Beff:       res.Beff,
			AtLmax:     res.BeffAtLmax,
			RingAtLmax: res.RingAtLmax,
			PingPong:   res.PingPong,
			Lmax:       res.Lmax,
		}
		if len(ref.Reps) > 0 {
			vals := make([]float64, 0, len(ref.Reps))
			for _, i := range ref.Reps {
				if i >= len(values) {
					return nil, fmt.Errorf("fleet: rep ref %s@%d beyond %d values", ref.Machine, ref.Procs, len(values))
				}
				vals = append(vals, values[i].Beff)
			}
			rb := SummarizeReps(vals)
			pt.Perturbed = &report.FleetPerturbed{
				Profile:        s.PerturbName,
				Reps:           len(vals),
				Summary:        rb.Summary,
				MaxOverReps:    rb.MaxOverReps,
				SensitivityPct: sensitivityPct(res.Beff, rb.MaxOverReps),
			}
		}
		byMachine[ref.Machine] = append(byMachine[ref.Machine], pt)
	}
	for _, key := range s.Machines {
		p, err := machine.Lookup(key)
		if err != nil {
			return nil, err
		}
		pts := byMachine[key]
		if len(pts) == 0 {
			continue
		}
		m := report.FleetMachine{
			Key:          p.Key,
			Name:         p.Name,
			Class:        p.Class.String(),
			FabricFamily: p.FabricFamily(),
			SMPNodeSize:  p.SMPNodeSize,
			MaxProcs:     p.MaxProcs,
			Points:       pts,
		}
		head := pts[len(pts)-1] // ladder is ascending: last point is the headline
		m.Procs = head.Procs
		m.Beff = head.Beff
		if head.Procs > 0 {
			m.BeffPerProc = head.Beff / float64(head.Procs)
		}
		if p.RmaxPerProcGF > 0 {
			m.RmaxGF = p.RmaxGF(head.Procs)
			m.Balance = head.Beff / (m.RmaxGF * 1e9)
			m.HasBalance = true
		}
		if head.Perturbed != nil {
			m.SensitivityPct = head.Perturbed.SensitivityPct
		}
		fr.Machines = append(fr.Machines, m)
	}
	return fr, nil
}

// sensitivityPct is the headline fraction of baseline bandwidth lost
// under perturbation: 100*(1 - perturbed/baseline), clamped at 0 so a
// perturbation that (within measurement) helps reads as 0 loss, and
// defined as 0 for a zero baseline — never NaN.
func sensitivityPct(baseline, perturbedMax float64) float64 {
	if baseline <= 0 {
		return 0
	}
	pct := 100 * (1 - perturbedMax/baseline)
	if pct < 0 {
		pct = 0
	}
	return pct
}

// RunFleet expands, sweeps and assembles in one call — the cmd/fleet
// and serve entry point.
func RunFleet(s *FleetSpec, opt Options) (*report.FleetReport, error) {
	cells, refs, err := FleetCells(s)
	if err != nil {
		return nil, err
	}
	results := Sweep(cells, opt)
	if err := Err(results); err != nil {
		return nil, err
	}
	return AssembleFleet(s, refs, Values(results))
}
