package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the child process an
// untraced run starts for each pass.
func TestMain(m *testing.M) {
	if os.Getenv(passEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of the repository's BENCHMARK.json these
// tests hold the command to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs the command in-process at the tiny size and returns its
// exit code and the parsed result line.
func runTiny(t *testing.T, workload, seed, trace string) (int, result) {
	t.Helper()
	args := []string{
		"--workload", workload, "--seed", seed, "--seconds", "0.1", "--trace", trace,
		"--size", "tiny", "--root", "..",
	}
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", workload, err, stdout.String(), stderr.String())
	}
	return code, res
}

// traced caches one traced tiny run per workload and seed; the smoke
// and exact-count tests share them.
var traced = map[string]result{}

func tracedRun(t *testing.T, workload, seed string) result {
	t.Helper()
	key := workload + "@" + seed
	if res, ok := traced[key]; ok {
		return res
	}
	code, res := runTiny(t, workload, seed, "1")
	if code != 0 || !res.Correct {
		t.Fatalf("%s traced: exit %d, %d of %d failed", key, code, res.Failed, res.Attempted)
	}
	traced[key] = res
	return res
}

// TestSmokeEveryMetric runs every workload at the tiny size, untraced
// and traced, and checks each emits exactly the metrics BENCHMARK.json
// names, each with its unit, with every operation passing its check.
func TestSmokeEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	want := func(ms []specMetric) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	check := func(t *testing.T, res result, want map[string]string) {
		t.Helper()
		got := map[string]string{}
		for name, m := range res.Metrics {
			got[name] = m.Unit
		}
		if !maps.Equal(got, want) {
			t.Errorf("metrics %v, want %v", sortedKeys(got), sortedKeys(want))
		}
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			code, res := runTiny(t, w.Name, "1", "0")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced: exit %d, correct %v, %d of %d failed", code, res.Correct, res.Failed, res.Attempted)
			}
			check(t, res, want(spec.EndToEnd))
			for name, m := range res.Metrics {
				if m.Value == 0 {
					t.Errorf("end-to-end metric %s is 0", name)
				}
			}
			check(t, tracedRun(t, w.Name, "1"), want(spec.PerLayer))
		})
	}
}

// TestWrongPinFails pins a wrong headline: the run must count the
// cell as failed, report it in check.failed_frac and exit nonzero.
func TestWrongPinFails(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	key := "tiny/beff-sweep/t3e/8"
	if _, ok := pins[key]; !ok {
		t.Fatalf("no pin %s", key)
	}
	pins[key] *= 1.0000001
	data, err := json.Marshal(pins)
	if err != nil {
		t.Fatal(err)
	}
	saved := embeddedPins
	embeddedPins = data
	t.Cleanup(func() { embeddedPins = saved })
	code, res := runTiny(t, "beff-sweep", "1", "1")
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("wrong pin passed: exit %d, correct %v, %d failed", code, res.Correct, res.Failed)
	}
	if f := res.Metrics["check.failed_frac"].Value; !(f > 0) {
		t.Fatalf("check.failed_frac = %v, want > 0", f)
	}
}

// simCounts are the counts that must repeat exactly at one seed.
var simCounts = []string{
	"des.dispatches", "des.clock_advances", "des.fast_advances", "des.heap_depth_max",
	"simnet.transfers", "simnet.bytes", "simnet.queued_transfers",
	"mpi.messages", "mpi.rendezvous_messages", "mpi.unexpected_matches",
	"simfs.server_ops", "simfs.disk_bytes", "simfs.seeks",
	"mpiio.collective_ops", "mpiio.shuffle_bytes",
	"store.puts",
}

// TestCountsRepeatExactly runs each workload traced twice at one seed:
// the simulation-layer counts and store.puts must be identical. A
// different seed must change beff-sweep's counts.
func TestCountsRepeatExactly(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			a := tracedRun(t, w.Name, "1")
			_, b := runTiny(t, w.Name, "1", "1")
			for _, name := range simCounts {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s: %v then %v at one seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
			if a.Metrics["des.dispatches"].Value == 0 {
				t.Error("no simulation counted")
			}
		})
	}
	a := tracedRun(t, "beff-sweep", "1")
	b := tracedRun(t, "beff-sweep", "2")
	if a.Metrics["des.dispatches"] == b.Metrics["des.dispatches"] && a.Metrics["mpi.unexpected_matches"] == b.Metrics["mpi.unexpected_matches"] {
		t.Error("seeds 1 and 2 gave beff-sweep identical counts")
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/hpcbench/beff/internal/des.(*Proc).SleepUntil":                                          "des",
		"github.com/hpcbench/beff/internal/runner.RunCell[go.shape.*github.com/hpcbench/beff/internal/x.Y]": "runner",
		"main.(*server).do": "bench",
	} {
		if got, ok := layerOf(fn); !ok || got != want {
			t.Errorf("layerOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	if _, ok := layerOf("runtime.mallocgc"); ok {
		t.Error("runtime.mallocgc is a repository layer")
	}
}
