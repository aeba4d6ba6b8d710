// Command perfbench is the repository's benchmark. It drives the
// simulator and the sweep service from outside, through their public
// functions only, checks every result outside the timed region, and
// prints one JSON result line:
//
//	bash perfbench/run.sh --workload beff-sweep --seed 1 --seconds 40 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 attaches the
// layer counters, a CPU profile and benchmark-side spans and reports
// the per-layer metrics. README.md lists the workloads, the metrics and
// which end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout holding the golden corpus and the workload specs
	size     string // "full", or "tiny" for the package's own tests
	workDir  string // <root>/.bench_build/perfbench: scratch caches and the Chrome trace
	args     []string
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var cfg config
	var trace int
	fl.StringVar(&cfg.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames))
	fl.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fl.Float64Var(&cfg.seconds, "seconds", 40, "measure passes for about this many seconds")
	fl.IntVar(&trace, "trace", 0, "1 attaches counters, a CPU profile and spans and reports per-layer metrics")
	fl.StringVar(&cfg.root, "root", ".", "repository checkout")
	fl.StringVar(&cfg.size, "size", "full", "full | tiny")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	switch {
	case fl.NArg() > 0:
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fl.Args())
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", trace)
		return 2
	case cfg.seconds <= 0:
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	case cfg.size != "full" && cfg.size != "tiny":
		fmt.Fprintf(stderr, "perfbench: --size must be full or tiny\n")
		return 2
	}
	cfg.workDir = filepath.Join(cfg.root, ".bench_build", "perfbench")
	cfg.args = args
	if index := os.Getenv(passEnv); index != "" {
		return runPass(cfg, index, stdout, stderr)
	}
	res, err := measure(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed their check\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// op is one operation: a cell on the sweeps, a job on beffd-mixed.
type op struct {
	ms     float64 // host latency
	miss   bool    // it simulated (every sweep cell; a beffd job with a cache miss)
	failed bool
}

// passResult is one set-up plus one run of the workload's fixed work.
// The sweeps time set-ups, run and operations in process CPU time;
// beffd-mixed in wall time.
type passResult struct {
	setups  []time.Duration // each set-up made in the pass
	run     time.Duration
	wall    time.Duration // wall time of the run
	steal   float64       // the machine's steal seconds during set-up and run
	ops     []op
	msgs    int64  // simulated messages
	mallocs uint64 // heap allocations during the run
	layers  *layerSample
}

// workloadRunner is one named workload.
type workloadRunner interface {
	// pass sets up, runs and audits the fixed work once. tr is nil on
	// an untraced pass.
	pass(index int, tr *tracer) (*passResult, error)
	close() error
}

// Pass 0 warms up and is left out of every metric.
const (
	measuredFrom = 1
	// tracedFrom is the first traced pass of a traced run. Pass 1 is
	// the untraced baseline for the tracing overhead.
	tracedFrom = 2
)

// measure runs passes of the workload for about --seconds — at least
// one measured pass, and at least one traced pass under --trace 1 —
// and reduces them to metrics. Every pass's operations are checked.
//
// An untraced pass runs in a fresh child process, one at a time, so
// that every pass starts from the same state, as a user's command
// does. In one long-lived process the passes of beffio-sweep slowed by
// about 30% over 20 passes: the live heap grows by every simulated
// b_eff_io cell (mpiio keeps each file system it opened in a
// package-level registry), and each garbage collection marks more. A
// traced run keeps its passes in this process, where its registry,
// profile and spans live.
func measure(cfg config, stdout, stderr io.Writer) (*result, error) {
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	// Built here too, so that bad arguments fail before any child
	// starts; only a traced run's passes use it.
	w, err := newWorkload(cfg, pins)
	if err != nil {
		return nil, err
	}
	var spans *spanLog
	if cfg.trace {
		spans = newSpanLog()
	}
	var passes []*passResult
	var prof cpuProfile
	steal0 := readSteal()
	start := time.Now()
	for i := 0; ; i++ {
		var tr *tracer
		if cfg.trace && i >= tracedFrom {
			if tr, err = newTracer(spans, &prof, i); err != nil {
				w.close()
				return nil, err
			}
		}
		var p *passResult
		if cfg.trace {
			p, err = w.pass(i, tr)
			tr.untimed()
		} else {
			p, err = childPass(cfg.args, i, stderr)
		}
		if err != nil {
			w.close()
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		passes = append(passes, p)
		fmt.Fprintf(stdout, "pass %d: setup %.6f s, run %.6f s, run wall %.6f s, %d operations, machine steal %.2f s\n",
			i, median(seconds(p.setups)), p.run.Seconds(), p.wall.Seconds(), len(p.ops), p.steal)
		// Stop when one more pass of the mean length so far would end
		// after --seconds.
		n := float64(len(passes))
		first := measuredFrom
		if cfg.trace {
			first = tracedFrom
		}
		if len(passes) > first && time.Since(start).Seconds()*(n+1)/n > cfg.seconds {
			break
		}
	}
	if err := w.close(); err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metric{}}
	for _, p := range passes {
		for _, o := range p.ops {
			res.Attempted++
			if o.failed {
				res.Failed++
			}
		}
	}
	res.Correct = res.Failed == 0
	rep := &report{out: stdout, metrics: res.Metrics}
	fmt.Fprintf(stdout, "perfbench %s seed %d size %s: %d passes, %d operations, %d failed\n",
		cfg.workload, cfg.seed, cfg.size, len(passes), res.Attempted, res.Failed)
	fmt.Fprintf(stdout, "machine steal during the run: %.2f s\n", readSteal()-steal0)
	if cfg.trace {
		if err := layerMetrics(rep, passes[tracedFrom:], passes[tracedFrom-1].run, &prof, res); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.workDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := spans.writeChrome(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
	} else {
		endToEnd(rep, passes[measuredFrom:])
	}
	return res, nil
}

// report collects metrics and prints one human-readable line each.
type report struct {
	out     io.Writer
	metrics map[string]metric
}

// add records a metric; n > 0 is the sample count it was reduced from.
func (r *report) add(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	if n > 0 {
		fmt.Fprintf(r.out, "  %-28s %14.6g %-6s (n=%d)\n", name, v, unit, n)
	} else {
		fmt.Fprintf(r.out, "  %-28s %14.6g %s\n", name, v, unit)
	}
}

// endToEnd reduces untraced passes to the end-to-end metrics. A
// latency is the median over passes of each pass's median: the
// operations of a pass are of a few kinds of very different length,
// and a median pooled over passes can fall between two kinds, where it
// swings with single samples.
func endToEnd(r *report, passes []*passResult) {
	var setups, runs, opMs, missMs []float64
	var msgs, mallocs, ops float64
	var nMiss int
	for _, p := range passes {
		for _, s := range p.setups {
			setups = append(setups, s.Seconds())
		}
		runs = append(runs, p.run.Seconds())
		msgs += float64(p.msgs)
		mallocs += float64(p.mallocs)
		ops += float64(len(p.ops))
		var all, miss []float64
		for _, o := range p.ops {
			all = append(all, o.ms)
			if o.miss {
				miss = append(miss, o.ms)
			}
		}
		opMs = append(opMs, median(all))
		if len(miss) > 0 {
			missMs = append(missMs, median(miss))
			nMiss += len(miss)
		}
	}
	perPass := func(total float64) float64 { return total / float64(len(passes)) }
	r.add("setup_s", median(setups), "s", len(setups))
	r.add("run_s", median(runs), "s", len(runs))
	r.add("ops_per_s", perPass(ops)/median(runs), "1/s", len(runs))
	r.add("sim_msgs_per_s", perPass(msgs)/median(runs), "1/s", len(runs))
	r.add("allocs_per_msg", mallocs/msgs, "count", int(msgs))
	r.add("peak_rss_mb", peakRSSMB(), "MB", 0)
	r.add("op_ms_p50", median(opMs), "ms", int(ops))
	r.add("miss_ms_p50", median(missMs), "ms", nMiss)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// cpuTime is the CPU time all threads of this process have used, user
// and system. On a virtual machine whose kernel accounts steal time
// (Linux with paravirtual steal accounting), it excludes the time the
// hypervisor ran other guests instead, which wall time includes.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readSteal is the machine's steal time in seconds from /proc/stat
// (Linux, USER_HZ = 100 ticks per second), or 0 where it is not
// available. It is only printed, beside each pass's times.
func readSteal() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// peakRSSMB is the largest peak resident set size of the passes' child
// processes.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// median and quantile interpolate linearly between order statistics;
// they return 0 for no samples.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

var workloadNames = []string{"beff-sweep", "beffio-sweep", "beffd-mixed"}

func newWorkload(cfg config, pins map[string]float64) (workloadRunner, error) {
	switch cfg.workload {
	case "beff-sweep":
		return newBeffSweep(cfg, pins)
	case "beffio-sweep":
		return newBeffIOSweep(cfg, pins)
	case "beffd-mixed":
		return newBeffdMixed(cfg)
	case "":
		return nil, errors.New("--workload is required")
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
}

// passEnv names the environment variable that makes the command a
// pass's child process: it runs the pass numbered by the variable and
// prints the pass's record instead of measuring.
const passEnv = "PERFBENCH_PASS"

// childPass runs pass index in a fresh child process: this executable
// with the same arguments and passEnv set. It waits for the child to
// end and decodes the record the child prints.
func childPass(args []string, index int, stderr io.Writer) (*passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", passEnv, index))
	cmd.Stderr = stderr
	// The child ends with this process, should this one be killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	var rec passRecord
	if err := json.Unmarshal(out, &rec); err != nil {
		return nil, fmt.Errorf("child process record: %w", err)
	}
	p := &passResult{setups: rec.Setups, run: rec.Run, wall: rec.Wall, steal: rec.Steal, msgs: rec.Msgs, mallocs: rec.Mallocs}
	for _, o := range rec.Ops {
		p.ops = append(p.ops, op{ms: o.Ms, miss: o.Miss, failed: o.Failed})
	}
	return p, nil
}

// runPass is the child process's side of childPass: it runs one
// untraced pass and prints its record as JSON.
func runPass(cfg config, index string, stdout, stderr io.Writer) int {
	i, err := strconv.Atoi(index)
	if err != nil || i < 0 {
		fmt.Fprintf(stderr, "perfbench: %s=%q is not a pass number\n", passEnv, index)
		return 2
	}
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	w, err := newWorkload(cfg, pins)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	p, err := w.pass(i, nil)
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: pass %d: %v\n", i, err)
		return 1
	}
	rec := passRecord{Setups: p.setups, Run: p.run, Wall: p.wall, Steal: p.steal, Msgs: p.msgs, Mallocs: p.mallocs}
	for _, o := range p.ops {
		rec.Ops = append(rec.Ops, opRecord{Ms: o.ms, Miss: o.miss, Failed: o.failed})
	}
	if err := json.NewEncoder(stdout).Encode(rec); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// passRecord is an untraced passResult as a child process sends it.
type passRecord struct {
	Setups  []time.Duration
	Run     time.Duration
	Wall    time.Duration
	Steal   float64
	Ops     []opRecord
	Msgs    int64
	Mallocs uint64
}

type opRecord struct {
	Ms           float64
	Miss, Failed bool
}
