package runner

import "github.com/hpcbench/beff/internal/stats"

// Repetition harness: a perturbed benchmark cell (CellSpec.Perturb)
// run for repetitions 0..N-1, each under its own derived seed, and the
// resulting value distribution summarised here. Each repetition is an
// ordinary sweep cell — it parallelises over -j and caches like any
// other cell, and because the perturbation profile and seed are part of
// the cache fingerprint, two repetitions (or two different base seeds)
// can never alias each other's cached results.

// Robustness is the distribution of a benchmark value over a
// repetition sweep.
type Robustness struct {
	// Values are the per-repetition measurements, in repetition order.
	Values []float64
	// Summary is the spread of Values.
	Summary stats.Robust
	// MaxOverReps is the paper-prescribed reported value: the maximum
	// over repetitions (identical to Summary.Max, named for the
	// protocol).
	MaxOverReps float64
}

// SummarizeReps computes the Robustness of a slice of per-repetition
// values.
func SummarizeReps(values []float64) Robustness {
	s := stats.Describe(values...)
	return Robustness{Values: values, Summary: s, MaxOverReps: s.Max}
}
