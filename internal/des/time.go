// Package des implements a deterministic, sequential discrete-event
// simulation engine. Simulated processes are goroutines, but the engine
// runs exactly one of them at a time and hands control off explicitly,
// so every run of a simulation is reproducible and free of data races by
// construction.
//
// The engine provides the virtual clock that the whole benchmark stack
// (network, MPI runtime, filesystem, and the b_eff / b_eff_io drivers)
// charges time against. mpi.Wtime is this clock.
package des

import "fmt"

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It is deliberately distinct from time.Time: nothing in a
// simulation may consult the host's wall clock.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring package time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Add returns the time t+d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the duration as a floating point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Seconds returns the time as a floating point number of seconds since
// the simulation epoch.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// DurationOf converts a floating point number of seconds to a Duration,
// rounding to the nearest nanosecond. Negative and non-finite inputs are
// clamped to zero: virtual time never runs backwards.
func DurationOf(seconds float64) Duration {
	if !(seconds > 0) { // catches negatives and NaN
		return 0
	}
	return Duration(seconds*float64(Second) + 0.5)
}

func (d Duration) String() string {
	switch {
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.3fus", float64(d)/float64(Microsecond))
	case d < Second:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", float64(d)/float64(Second))
	}
}

func (t Time) String() string { return Duration(t).String() }

// MaxTime is the largest representable virtual time. It is used as the
// wake deadline of a process that is blocked with no timeout.
const MaxTime Time = 1<<63 - 1

func maxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
