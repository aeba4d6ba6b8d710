// Command tables regenerates every table and figure of the paper's
// evaluation from the simulated machines:
//
//	tables -table1      Table 1: b_eff across systems and sizes
//	tables -fig1        Fig. 1: balance factors
//	tables -fig3        Fig. 3: b_eff_io vs processes, T3E vs SP, several T
//	tables -fig4        Fig. 4: per-pattern I/O detail, four systems
//	tables -fig5        Fig. 5: final b_eff_io comparison
//	tables -all         everything (EXPERIMENTS.md is generated from this)
//
// By default reduced processor counts keep simulated event counts
// small; -full uses the paper's partition sizes (slower).
//
// Every (machine, partition, parameters) combination is an independent
// simulation cell: cells fan out over -j workers and their results
// memoise under -cache, so a warm rerun renders everything without
// re-simulating. Output is byte-identical at any -j. If any cell fails
// the command exits non-zero.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/report"
	"github.com/hpcbench/beff/internal/runner"
)

var (
	full    = flag.Bool("full", false, "use the paper's processor counts (slow)")
	maxLoop = flag.Int("maxloop", 2, "b_eff max looplength")
	ioT     = flag.Float64("T", 45, "b_eff_io scheduled time per partition, virtual seconds")
	csvDir  = flag.String("csvdir", "", "also write machine-readable CSV artifacts into this directory")
	rflags  runner.Flags
)

// writeCSV drops an experiment's data into the csvdir, if requested.
func writeCSV(name string, header []string, rows [][]string) {
	writeArtifact(name, func(w io.Writer) error { return report.CSV(w, header, rows) })
}

// writeArtifact creates name in the csvdir, if requested, and fills it
// with write.
func writeArtifact(name string, write func(io.Writer) error) {
	if *csvDir == "" {
		return
	}
	fatal(os.MkdirAll(*csvDir, 0o755))
	f, err := os.Create(filepath.Join(*csvDir, name))
	fatal(err)
	fatal(write(f))
	fatal(f.Close())
}

func main() {
	var (
		table1 = flag.Bool("table1", false, "regenerate Table 1")
		fig1   = flag.Bool("fig1", false, "regenerate Fig. 1")
		fig3   = flag.Bool("fig3", false, "regenerate Fig. 3")
		fig4   = flag.Bool("fig4", false, "regenerate Fig. 4")
		fig5   = flag.Bool("fig5", false, "regenerate Fig. 5")
		all    = flag.Bool("all", false, "regenerate everything")
	)
	rflags.Register(flag.CommandLine)
	flag.Parse()
	if *all {
		*table1, *fig1, *fig3, *fig4, *fig5 = true, true, true, true, true
	}
	if !*table1 && !*fig1 && !*fig3 && !*fig4 && !*fig5 {
		flag.Usage()
		os.Exit(2)
	}
	if *table1 {
		runTable1()
	}
	if *fig1 {
		runFig1()
	}
	if *fig3 {
		runFig3()
	}
	if *fig4 {
		runFig4()
	}
	if *fig5 {
		runFig5()
	}
}

// beffSweep measures b_eff on every (machine, procs) spec through the
// runner and returns the results in spec order. Table 1 and Fig. 1
// overlap in specs, so with the cache on, the second one renders from
// the first one's cells.
func beffSweep(label string, specs []runner.CellSpec) []*core.Result {
	cells := make([]runner.Cell[*core.Result], len(specs))
	for i, s := range specs {
		s.Beff = core.Options{MaxLooplength: *maxLoop, Reps: 1, SkipAnalysis: true}
		cells[i] = runner.BeffCell(s)
	}
	return sweep(label, cells)
}

// sweep runs the cells through the runner and returns their values in
// cell order, exiting on any failed cell.
func sweep[T any](label string, cells []runner.Cell[T]) []T {
	results := runner.Sweep(cells, rflags.Options(label))
	fatal(runner.Err(results))
	return runner.Values(results)
}

// machineSizes lists the partition sizes measured on one machine.
type machineSizes struct {
	key   string
	procs []int
}

// table1Sizes lists the (machine, procs) pairs of Table 1; the quick
// variant trims the largest partitions.
func table1Sizes() []machineSizes {
	if *full {
		return []machineSizes{
			{"t3e", []int{512, 256, 128, 64, 24, 2}},
			{"sr8000-rr", []int{128, 24}},
			{"sr8000-seq", []int{24}},
			{"sr2201", []int{16}},
			{"sx5", []int{4}},
			{"sx4", []int{16, 8, 4}},
			{"hpv", []int{7}},
			{"sv1", []int{15}},
		}
	}
	return []machineSizes{
		{"t3e", []int{64, 24, 2}},
		{"sr8000-rr", []int{24}},
		{"sr8000-seq", []int{24}},
		{"sr2201", []int{16}},
		{"sx5", []int{4}},
		{"sx4", []int{16, 8, 4}},
		{"hpv", []int{7}},
		{"sv1", []int{15}},
	}
}

func mustLookup(key string) *machine.Profile {
	p, err := machine.Lookup(key)
	fatal(err)
	return p
}

func runTable1() {
	fmt.Println("=== Table 1: Effective Benchmark Results ===")
	var specs []runner.CellSpec
	for _, m := range table1Sizes() {
		for _, n := range m.procs {
			specs = append(specs, runner.CellSpec{Machine: m.key, Procs: n})
		}
	}
	measured := beffSweep("table1", specs)
	var rows []report.Table1Row
	i := 0
	for _, m := range table1Sizes() {
		p := mustLookup(m.key)
		for _, n := range m.procs {
			res := measured[i]
			i++
			// Like the paper's table, quote the ping-pong only once
			// per machine (it is measured within each partition; the
			// largest is the representative one).
			row := report.FromBeff(p.Name, res)
			if n != m.procs[0] {
				row.PingPong = 0
			}
			rows = append(rows, row)
		}
	}
	fmt.Print(report.Table1(rows))
	fmt.Println()
	var csv [][]string
	for _, r := range rows {
		csv = append(csv, []string{
			r.System, fmt.Sprint(r.Procs),
			fmt.Sprintf("%.1f", r.Beff/1e6),
			fmt.Sprintf("%.1f", r.Beff/float64(r.Procs)/1e6),
			fmt.Sprint(r.Lmax),
			fmt.Sprintf("%.1f", r.PingPong/1e6),
			fmt.Sprintf("%.1f", r.AtLmax/1e6),
			fmt.Sprintf("%.1f", r.RingOnly/float64(r.Procs)/1e6),
		})
	}
	writeCSV("table1.csv",
		[]string{"system", "procs", "beff_mbps", "beff_per_proc", "lmax_bytes", "pingpong_mbps", "at_lmax_mbps", "ring_per_proc_mbps"},
		csv)
}

func runFig1() {
	fmt.Println("=== Figure 1: Balance factor ===")
	var specs []runner.CellSpec
	for _, m := range table1Sizes() {
		specs = append(specs, runner.CellSpec{Machine: m.key, Procs: m.procs[0]})
	}
	measured := beffSweep("fig1", specs)
	var rows []report.BalanceRow
	for i, m := range table1Sizes() {
		p := mustLookup(m.key)
		n := m.procs[0]
		rows = append(rows, report.BalanceRow{
			System: p.Name, Procs: n, Beff: measured[i].Beff, RmaxGF: p.RmaxGF(n),
		})
	}
	fmt.Print(report.BalanceChart(rows))
	fmt.Println()
}

// seriesCSV flattens chart series into CSV rows in deterministic order
// (series order, then ascending partition size).
func seriesCSV(series []report.Series) [][]string {
	var csv [][]string
	for _, s := range series {
		procs := make([]int, 0, len(s.Points))
		for n := range s.Points {
			procs = append(procs, n)
		}
		sort.Ints(procs)
		for _, n := range procs {
			csv = append(csv, []string{s.Name, fmt.Sprint(n), fmt.Sprintf("%.2f", s.Points[n]/1e6)})
		}
	}
	return csv
}

func runFig3() {
	fmt.Println("=== Figure 3: b_eff_io vs partition size, T3E vs SP, several T ===")
	sizes := []int{2, 4, 8, 16, 32}
	if *full {
		sizes = []int{8, 16, 32, 64, 128}
	}
	ts := []float64{*ioT / 2, *ioT, *ioT * 2}
	type spec struct {
		key string
		t   float64
	}
	var specs []spec
	var cells []runner.Cell[*beffio.Result]
	for _, key := range []string{"t3e", "sp"} {
		for _, t := range ts {
			specs = append(specs, spec{key, t})
			for _, n := range sizes {
				opt := beffio.Options{
					T: des.DurationOf(t),
					// The paper's Fig. 3 data was "measured partially
					// without pattern type 3".
					SkipTypes:         []beffio.PatternType{beffio.Segmented},
					MaxRepsPerPattern: 1 << 14,
				}
				cell := runner.BeffIOCell(runner.CellSpec{Machine: key, Procs: n, IO: opt})
				cell.Key = fmt.Sprintf("beffio:%s@%d,T=%.0fs", key, n, t)
				cells = append(cells, cell)
			}
		}
	}
	measured := sweep("fig3", cells)
	var series []report.Series
	for si, sp := range specs {
		s := report.Series{Name: fmt.Sprintf("%s T=%.0fs", sp.key, sp.t), Points: map[int]float64{}}
		for ni, n := range sizes {
			s.Points[n] = measured[si*len(sizes)+ni].BeffIO
		}
		series = append(series, s)
	}
	fmt.Print(report.SweepChart("b_eff_io (MB/s) over number of I/O processes", series))
	fmt.Println()
	writeCSV("fig3.csv", []string{"series", "procs", "beffio_mbps"}, seriesCSV(series))
}

func runFig4() {
	fmt.Println("=== Figure 4: per-pattern bandwidth, three access methods, four systems ===")
	procs := map[string]int{"sp": 8, "t3e": 16, "sr8000-seq": 8, "sx5": 4}
	if *full {
		procs = map[string]int{"sp": 64, "t3e": 32, "sr8000-seq": 16, "sx5": 4}
	}
	keys := []string{"sp", "t3e", "sr8000-seq", "sx5"}
	var cells []runner.Cell[*beffio.Result]
	for _, key := range keys {
		cells = append(cells, runner.BeffIOCell(runner.CellSpec{Machine: key, Procs: procs[key], IO: beffio.Options{
			T:                 des.DurationOf(*ioT),
			MaxRepsPerPattern: 1 << 14,
		}}))
	}
	measured := sweep("fig4", cells)
	for i, key := range keys {
		p := mustLookup(key)
		res := measured[i]
		fmt.Printf("\n--- %s (%s) ---\n", p.Name, p.FS.Name)
		fmt.Print(report.BeffIOProtocol(res))
		writeArtifact("fig4_"+key+".csv", func(w io.Writer) error { return report.BeffIOCSV(w, key, res) })
	}
	fmt.Println()
}

func runFig5() {
	fmt.Println("=== Figure 5: final b_eff_io comparison ===")
	sizesFor := map[string][]int{
		"sp":         {4, 8, 16},
		"t3e":        {4, 8, 16},
		"sr8000-seq": {4, 8},
		"sx5":        {2, 4},
	}
	if *full {
		sizesFor = map[string][]int{
			"sp":         {16, 32, 64, 128},
			"t3e":        {16, 32, 64, 128},
			"sr8000-seq": {8, 16},
			"sx5":        {4, 8},
		}
	}
	keys := []string{"sp", "t3e", "sr8000-seq", "sx5"}
	var cells []runner.Cell[*beffio.Result]
	for _, key := range keys {
		for _, n := range sizesFor[key] {
			cells = append(cells, runner.BeffIOCell(runner.CellSpec{Machine: key, Procs: n, IO: beffio.Options{
				T:                 des.DurationOf(*ioT),
				MaxRepsPerPattern: 1 << 14,
			}}))
		}
	}
	measured := sweep("fig5", cells)
	var series []report.Series
	i := 0
	for _, key := range keys {
		p := mustLookup(key)
		s := report.Series{Name: p.Name, Points: map[int]float64{}}
		var results []*beffio.Result
		for range sizesFor[key] {
			results = append(results, measured[i])
			s.Points[measured[i].Procs] = measured[i].BeffIO
			i++
		}
		series = append(series, s)
		best := beffio.SystemValue(results)
		fmt.Printf("%-28s system b_eff_io = %8.1f MB/s (at %d procs)\n", p.Key, best.BeffIO/1e6, best.Procs)
	}
	fmt.Println()
	fmt.Print(report.SweepChart("b_eff_io (MB/s) per partition size", series))
	fmt.Println()
	writeCSV("fig5.csv", []string{"series", "procs", "beffio_mbps"}, seriesCSV(series))
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}
