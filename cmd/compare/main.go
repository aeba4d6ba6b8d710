// Command compare runs b_eff on several machine profiles at the same
// partition size and lines the protocols up side by side — the spirit
// of the SKaMPI "comparison page" the paper's §6 wants to feed. It
// answers the procurement question the paper opens with: which machine
// is actually better balanced, not which has the shinier peak number.
//
// Each machine is an independent simulation cell: they run over -j
// workers and memoise under -cache. If any cell fails the command
// exits non-zero instead of printing a partial table.
//
// Usage:
//
//	compare -machines t3e,sr8000-seq,sr8000-rr -procs 24
//	compare -machines sx5,sx4 -procs 4 -j 2
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/runner"
)

func main() {
	var (
		machines = flag.String("machines", "t3e,sr8000-seq,sr8000-rr", "comma-separated machine profile keys")
		procs    = flag.Int("procs", 16, "partition size used on every machine")
		maxLoop  = flag.Int("maxloop", 4, "max looplength")
		rf       runner.Flags
	)
	rf.Register(flag.CommandLine)
	flag.Parse()

	opt := core.Options{MaxLooplength: *maxLoop, Reps: 1, SkipAnalysis: true}

	var (
		profiles []*machine.Profile
		cells    []runner.Cell[*core.Result]
	)
	for _, key := range strings.Split(*machines, ",") {
		key = strings.TrimSpace(key)
		p, err := machine.Lookup(key)
		fatal(err)
		n := *procs
		if n > p.MaxProcs {
			n = p.MaxProcs
			fmt.Fprintf(os.Stderr, "compare: %s capped at %d processes\n", key, n)
		}
		profiles = append(profiles, p)
		cells = append(cells, runner.BeffCell(runner.CellSpec{Machine: key, Procs: n, Beff: opt}))
	}
	results := runner.Sweep(cells, rf.Options("compare"))
	if err := runner.Err(results); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}

	type row struct {
		p   *machine.Profile
		res *core.Result
	}
	var rows []row
	for i, r := range results {
		rows = append(rows, row{profiles[i], r.Value})
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "metric\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t", r.p.Key)
	}
	fmt.Fprintln(tw)
	metric := func(name string, f func(row) float64, format string) {
		fmt.Fprintf(tw, "%s\t", name)
		for _, r := range rows {
			fmt.Fprintf(tw, format+"\t", f(r))
		}
		fmt.Fprintln(tw)
	}
	metric("procs", func(r row) float64 { return float64(r.res.Procs) }, "%.0f")
	metric("b_eff MB/s", func(r row) float64 { return r.res.Beff / 1e6 }, "%.0f")
	metric("b_eff/proc MB/s", func(r row) float64 { return r.res.BeffPerProc() / 1e6 }, "%.1f")
	metric("@Lmax/proc MB/s", func(r row) float64 { return r.res.AtLmaxPerProc() / 1e6 }, "%.1f")
	metric("rings@Lmax/proc MB/s", func(r row) float64 { return r.res.RingAtLmaxPerProc() / 1e6 }, "%.1f")
	metric("ping-pong MB/s", func(r row) float64 { return r.res.PingPong / 1e6 }, "%.0f")
	metric("balance bytes/flop", func(r row) float64 {
		return r.res.Beff / (r.p.RmaxGF(r.res.Procs) * 1e9)
	}, "%.4f")
	metric("small msgs MB/s", func(r row) float64 { return r.res.Categories().Ring[core.SmallMessages] / 1e6 }, "%.1f")
	metric("large msgs MB/s", func(r row) float64 { return r.res.Categories().Ring[core.LargeMessages] / 1e6 }, "%.0f")
	tw.Flush()

	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%-12s prefers %v\n", r.p.Key, r.res.Categories().PreferredMethod())
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
}
