// Command topclusters is the automation the paper's §6 plans for the
// IEEE TFCC "Top Clusters" list: it runs both benchmarks on a machine
// within a fixed schedule — the communication benchmark in the 3-5
// minute class and the I/O benchmark in the 30 minute class (all
// virtual time here) — and emits one combined, machine-readable record
// (SKaMPI-comparable output; see internal/report).
//
// Usage:
//
//	topclusters -machine cluster -procs 16
//	topclusters -machine sp -procs 32 -io-minutes 30 -out report.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/report"
	"github.com/hpcbench/beff/internal/runner"
)

func main() {
	var (
		machineKey = flag.String("machine", "cluster", "machine profile key")
		procs      = flag.Int("procs", 8, "processes for b_eff (whole machine) and b_eff_io (I/O partition)")
		ioMinutes  = flag.Float64("io-minutes", 3, "virtual minutes scheduled for b_eff_io (paper: 30 for the list)")
		outPath    = flag.String("out", "", "write the combined record to this file (default stdout)")
		maxLoop    = flag.Int("maxloop", 4, "b_eff max looplength")
	)
	flag.Parse()

	p, err := machine.Lookup(*machineKey)
	fatal(err)

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		fatal(err)
		defer f.Close()
		out = f
	}

	// Communication benchmark: must run on the whole requested
	// partition (b_eff computes an aggregate).
	bres, err := runner.BeffCell(runner.CellSpec{Machine: p.Key, Procs: *procs, Beff: core.Options{
		MaxLooplength: *maxLoop,
		Reps:          1,
	}}).Run()
	fatal(err)
	fmt.Fprintf(os.Stderr, "b_eff done: %.1f MB/s\n", bres.Beff/1e6)
	fatal(report.SKaMPIBeff(out, p.Key, bres))

	// I/O benchmark, when the machine has an I/O model.
	if p.FS != nil {
		iores, err := runner.BeffIOCell(runner.CellSpec{Machine: p.Key, Procs: *procs, IO: beffio.Options{
			T:                 des.DurationOf(*ioMinutes * 60),
			MaxRepsPerPattern: 1 << 14,
		}}).Run()
		fatal(err)
		fmt.Fprintf(os.Stderr, "b_eff_io done: %.1f MB/s\n", iores.BeffIO/1e6)
		fatal(report.SKaMPIBeffIO(out, p.Key, iores))
	} else {
		fmt.Fprintf(os.Stderr, "machine %s has no I/O model; skipping b_eff_io\n", p.Key)
	}

	// The combined Top-Clusters style footer.
	fmt.Fprintf(out, "topclusters machine=%q procs=%d beff=%.3f balance=%.5f\n",
		p.Key, *procs, bres.Beff/1e6, bres.Beff/(p.RmaxGF(*procs)*1e9))
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "topclusters:", err)
		os.Exit(1)
	}
}
