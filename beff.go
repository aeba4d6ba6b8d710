// Package beff is a full reproduction of the benchmarks in "Benchmark
// Design for Characterization of Balanced High-Performance
// Architectures" (Koniges, Rabenseifner, Solchenbach, IPPS 2001): the
// effective bandwidth benchmark b_eff and the effective I/O bandwidth
// benchmark b_eff_io, together with every substrate they need — an
// MPI-like message-passing runtime, a link-level interconnect
// simulator, a striped parallel filesystem, and an MPI-I/O layer with
// real two-phase collective I/O — all driven by a deterministic
// discrete-event engine.
//
// This package is the stable entry point. It runs the two benchmarks
// against named machine profiles (Cray T3E, IBM SP, NEC SX-5, Hitachi
// SR 8000, ...) or custom ones. The full machinery lives under
// internal/; see DESIGN.md for the system inventory and EXPERIMENTS.md
// for the paper-versus-measured record.
//
// Quick start:
//
//	res, err := beff.MeasureBandwidth("t3e", 64, beff.BandwidthOptions{})
//	fmt.Println(res.Beff/1e6, "MB/s")
package beff

import (
	"fmt"

	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/runner"
)

// BandwidthOptions configures a b_eff run; the zero value uses the
// profile's memory size and paper-faithful settings (looplength up to
// 300, three repetitions). Set MaxLooplength/Reps smaller for quicker
// simulations — they are deterministic either way.
type BandwidthOptions = core.Options

// BandwidthResult is the full b_eff measurement protocol.
type BandwidthResult = core.Result

// IOOptions configures a b_eff_io run.
type IOOptions = beffio.Options

// IOResult is the full b_eff_io measurement protocol.
type IOResult = beffio.Result

// Profile describes a simulated machine.
type Profile = machine.Profile

// Machines lists the available machine profile keys.
func Machines() []string { return machine.Keys() }

// LookupMachine finds a machine profile by key (e.g. "t3e", "sp",
// "sx5", "sr8000-rr", "cluster").
func LookupMachine(key string) (*Profile, error) { return machine.Lookup(key) }

// MeasureBandwidth runs the effective bandwidth benchmark b_eff on a
// named machine profile with the given number of MPI processes.
func MeasureBandwidth(machineKey string, procs int, opt BandwidthOptions) (*BandwidthResult, error) {
	return runner.BeffCell(runner.CellSpec{Machine: machineKey, Procs: procs, Beff: opt}).Run()
}

// MeasureIO runs the effective I/O bandwidth benchmark b_eff_io on a
// named machine profile with the given number of I/O processes, against
// a fresh instance of the profile's filesystem.
func MeasureIO(machineKey string, procs int, opt IOOptions) (*IOResult, error) {
	return runner.BeffIOCell(runner.CellSpec{Machine: machineKey, Procs: procs, IO: opt}).Run()
}

// MeasureIOSweep runs b_eff_io over several partition sizes and
// returns one result per size; the system value is the maximum (use
// beffio.SystemValue or scan yourself).
func MeasureIOSweep(machineKey string, sizes []int, opt IOOptions) ([]*IOResult, error) {
	var out []*IOResult
	for _, n := range sizes {
		res, err := MeasureIO(machineKey, n, opt)
		if err != nil {
			return out, fmt.Errorf("beffio: partition %d: %w", n, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// BalanceFactor computes b_eff / R_max in bytes per flop — Fig. 1's
// metric — for a completed b_eff run on a profile.
func BalanceFactor(p *Profile, res *BandwidthResult) float64 {
	r := p.RmaxGF(res.Procs)
	if r <= 0 {
		return 0
	}
	return res.Beff / (r * 1e9)
}
