// Command sensitivity answers the procurement question behind the
// paper's balance factor: which hardware parameter most moves a
// machine's effective bandwidth? It rebuilds a JSON-defined machine
// with one knob scaled at a time and reports the elasticity of b_eff
// (percent change per percent of knob change).
//
// The baseline and the per-knob measurements are independent
// simulation cells; they fan out over -j workers and memoise under
// -cache, so re-running after editing one knob only recomputes the
// cells that changed.
//
// Usage:
//
//	sensitivity -config mymachine.json -procs 16
//	sensitivity -config mymachine.json -procs 16 -scale 1.5 -j 4
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/runner"
)

func main() {
	var (
		configPath = flag.String("config", "", "JSON machine definition (required)")
		procs      = flag.Int("procs", 16, "partition size")
		scale      = flag.Float64("scale", 1.25, "factor applied to each knob in turn")
		maxLoop    = flag.Int("maxloop", 2, "max looplength")
		rf         runner.Flags
	)
	rf.Register(flag.CommandLine)
	flag.Parse()
	if *configPath == "" {
		fmt.Fprintln(os.Stderr, "sensitivity: -config is required (see internal/machine/config.go for the schema)")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*configPath)
	fatal(err)
	var base machine.ConfigFile
	fatal(json.Unmarshal(raw, &base))

	opt := core.Options{MaxLooplength: *maxLoop, Reps: 1, SkipAnalysis: true}

	knobs := []struct {
		name  string
		apply func(*machine.ConfigFile, float64)
	}{
		{"NIC tx/rx bandwidth", func(c *machine.ConfigFile, s float64) { c.NIC.TxGBps *= s; c.NIC.RxGBps *= s }},
		{"port bandwidth", func(c *machine.ConfigFile, s float64) { c.NIC.PortGBps *= s }},
		{"software overheads", func(c *machine.ConfigFile, s float64) {
			c.NIC.SendOverheadUs /= s
			c.NIC.RecvOverheadUs /= s
		}},
		{"fabric link/bus bandwidth", func(c *machine.ConfigFile, s float64) {
			c.Fabric.LinkGBps *= s
			c.Fabric.BusGBps *= s
			c.Fabric.AdapterGBps *= s
			c.Fabric.AggregateGBps *= s
		}},
		{"memory per processor", func(c *machine.ConfigFile, s float64) {
			c.MemoryPerProcMB = int64(float64(c.MemoryPerProcMB) * s)
		}},
	}

	// One cell per measurement, labelled by its knob: the baseline
	// first, then each knob.
	cell := func(name string, cf machine.ConfigFile) runner.Cell[*core.Result] {
		c := runner.BeffCell(runner.CellSpec{Config: &cf, Procs: *procs, Beff: opt})
		c.Key = name
		return c
	}
	cells := []runner.Cell[*core.Result]{cell("baseline", base)}
	for _, k := range knobs {
		cf := base // value copy; nested slices absent in the schema
		k.apply(&cf, *scale)
		cells = append(cells, cell(k.name, cf))
	}
	results := runner.Sweep(cells, rf.Options("sensitivity"))
	if err := runner.Err(results); err != nil {
		fmt.Fprintln(os.Stderr, "sensitivity:", err)
		os.Exit(1)
	}

	baseline := results[0].Value.Beff
	fmt.Printf("baseline b_eff = %.1f MB/s (%s, %d procs)\n\n", baseline/1e6, base.Name, *procs)

	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "knob (x%.2f)\tb_eff MB/s\tchange\telasticity\t\n", *scale)
	for i, k := range knobs {
		v := results[i+1].Value.Beff
		change := v/baseline - 1
		elasticity := change / (*scale - 1)
		fmt.Fprintf(tw, "%s\t%.1f\t%+.1f%%\t%.2f\t\n", k.name, v/1e6, change*100, elasticity)
	}
	tw.Flush()
	fmt.Println("\nelasticity ~1: the knob is the bottleneck; ~0: something else binds.")
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sensitivity:", err)
		os.Exit(1)
	}
}
