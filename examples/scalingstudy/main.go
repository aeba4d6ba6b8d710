// Scaling study: the Fig. 3 experiment — how aggregate I/O bandwidth
// behaves as the partition grows on two very different architectures.
// On the T3E model the I/O subsystem is a global resource (flat curve,
// maximum at a modest partition); on the SP/GPFS model bandwidth
// tracks the number of client nodes until the VSD servers saturate.
//
// The ten (machine, partition) cells are independent simulations, so
// the study runs them through the experiment runner: -j picks the
// worker count, and a second invocation renders entirely from the
// -cache directory.
//
//	go run ./examples/scalingstudy
//	go run ./examples/scalingstudy -j 4       # fan out
//	go run ./examples/scalingstudy -no-cache  # force recompute
package main

import (
	"flag"
	"fmt"
	"log"

	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/report"
	"github.com/hpcbench/beff/internal/runner"
)

func main() {
	var rf runner.Flags
	rf.Register(flag.CommandLine)
	flag.Parse()

	sizes := []int{2, 4, 8, 16, 32}
	keys := []string{"t3e", "sp"}
	var cells []runner.Cell[*beffio.Result]
	for _, key := range keys {
		for _, n := range sizes {
			cells = append(cells, runner.BeffIOCell(runner.CellSpec{Machine: key, Procs: n, IO: beffio.Options{
				T:                 30 * des.Second,
				SkipTypes:         []beffio.PatternType{beffio.Segmented},
				MaxRepsPerPattern: 1 << 12,
			}}))
		}
	}
	results := runner.Sweep(cells, rf.Options("scalingstudy"))
	if err := runner.Err(results); err != nil {
		log.Fatal(err)
	}

	var series []report.Series
	for ki, key := range keys {
		p, err := machine.Lookup(key)
		if err != nil {
			log.Fatal(err)
		}
		s := report.Series{Name: p.Name, Points: map[int]float64{}}
		var swept []*beffio.Result
		for ni := range sizes {
			r := results[ki*len(sizes)+ni].Value
			swept = append(swept, r)
			s.Points[r.Procs] = r.BeffIO
		}
		series = append(series, s)
		best := beffio.SystemValue(swept)
		fmt.Printf("%-28s max b_eff_io = %7.1f MB/s at %d I/O processes\n",
			p.Name, best.BeffIO/1e6, best.Procs)
	}
	fmt.Println()
	fmt.Print(report.SweepChart("b_eff_io over partition size (Fig. 3 shape)", series))
	fmt.Println("\nT3E: the I/O bandwidth is a global resource — near-flat curve.")
	fmt.Println("SP:  bandwidth tracks client nodes until the 20 VSD servers saturate.")
}
