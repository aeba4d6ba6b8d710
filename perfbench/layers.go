package main

import (
	"strings"
	"sync"
	"time"

	"github.com/hpcbench/beff/internal/cli"
	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/mpi"
	"github.com/hpcbench/beff/internal/mpiio"
	"github.com/hpcbench/beff/internal/obs"
	"github.com/hpcbench/beff/internal/simfs"
)

// tracer is the instrumentation of one traced pass: a fresh registry
// the layers' public hooks count into, the span log, and the
// benchmark-side timings of layer calls. Every method is a no-op on a
// nil tracer, which is how untraced passes run.
type tracer struct {
	spans *spanLog
	reg   *obs.Registry
	obs   *cli.Obs
	prof  *cpuProfile
	lane  int
	s     *layerSample
}

// layerSample is what one traced pass measured per layer.
type layerSample struct {
	builds    []float64          // machine build seconds, one entry per set-up
	calls     map[string]float64 // seconds spent in core.Run, beffio.Run, workload.Run
	diskReads int64              // simfs reads that reached a disk
	seeks     int64
	snap      obs.Snapshot

	mu      sync.Mutex
	routes  map[string][]float64 // serve route → client-side ms
	hitCell []float64            // job-status elapsed_ms of cached cells
	simCell []float64            // and of simulated ones
}

// newTracer starts the pass's CPU profile, which runs until the pass
// calls done.
func newTracer(spans *spanLog, prof *cpuProfile, pass int) (*tracer, error) {
	if err := prof.start(); err != nil {
		return nil, err
	}
	reg := obs.New()
	return &tracer{
		spans: spans, reg: reg, obs: cli.NewObs(reg), prof: prof, lane: pass,
		s: &layerSample{calls: map[string]float64{}, routes: map[string][]float64{}},
	}, nil
}

// untimed stops the CPU profile: the pass's set-up and run are over,
// and what follows — the audit — is off the timed paths.
func (t *tracer) untimed() {
	if t != nil {
		t.prof.stop()
	}
}

func (t *tracer) begin(name, cat string, parent int64) span {
	if t == nil {
		return span{}
	}
	return t.spans.begin(name, cat, t.lane, parent)
}

// beginOn opens a span on another lane, for concurrent clients.
func (t *tracer) beginOn(lane int, name, cat string, parent int64) span {
	if t == nil {
		return span{}
	}
	return t.spans.begin(name, cat, lane, parent)
}

func (t *tracer) registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// instrument attaches the des, mpi and simnet counters to a world and,
// when fs is not nil, the simfs counters and a disk-read counter.
func (t *tracer) instrument(w *mpi.WorldConfig, fs *simfs.FS) {
	if t == nil {
		return
	}
	t.obs.InstrumentWorld(w)
	t.obs.InstrumentNet(w.Net)
	if fs != nil {
		t.obs.InstrumentFS(fs)
		fs.ObserveServerOps(func(_ int, write bool, _ int64, _, _ des.Time) {
			if !write {
				t.s.diskReads++
			}
		})
	}
}

func (t *tracer) instrumentIO(info *mpiio.Info) {
	if t != nil {
		t.obs.InstrumentIO(info)
	}
}

func (t *tracer) call(layer string, d time.Duration) {
	if t != nil {
		t.s.calls[layer] += d.Seconds()
	}
}

func (t *tracer) builds(d time.Duration) {
	if t != nil {
		t.s.builds = append(t.s.builds, d.Seconds())
	}
}

func (t *tracer) seeks(n int64) {
	if t != nil {
		t.s.seeks += n
	}
}

func (t *tracer) route(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.s.mu.Lock()
	t.s.routes[name] = append(t.s.routes[name], ms(d))
	t.s.mu.Unlock()
}

func (t *tracer) cell(cached bool, elapsedMs float64) {
	if t == nil {
		return
	}
	t.s.mu.Lock()
	if cached {
		t.s.hitCell = append(t.s.hitCell, elapsedMs)
	} else {
		t.s.simCell = append(t.s.simCell, elapsedMs)
	}
	t.s.mu.Unlock()
}

// done takes the pass's final counter snapshot.
func (t *tracer) done() *layerSample {
	if t == nil {
		return nil
	}
	t.s.snap = t.reg.Snapshot()
	return t.s
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuLayers are the layers whose CPU share the traced run reports:
// this repository's modules on the timed paths, the benchmark itself,
// and samples with no repository frame.
var cpuLayers = []string{
	"machine", "des", "simnet", "mpi", "core", "simfs", "mpiio", "beffio", "workload",
	"runner", "store", "serve", "bench", "runtime",
}

// layerMetrics reduces the traced passes to the per-layer metrics.
// Counts come from the first traced pass, so they repeat exactly at
// one seed however many passes fit in the run; timings are medians
// over the traced passes. baseline is the run time of a warm untraced
// pass, from which the tracing overhead is taken.
func layerMetrics(r *report, traced []*passResult, baseline time.Duration, cpu *cpuProfile, res *result) error {
	shares, samples, err := cpu.shares()
	if err != nil {
		return err
	}
	first := traced[0].layers
	get := func(name string) float64 {
		v, _ := first.snap.Get(name)
		return v.Value
	}
	sumPrefix := func(prefix string) float64 {
		var s float64
		for _, v := range first.snap.Samples {
			if strings.HasPrefix(v.Name, prefix) {
				s += v.Value
			}
		}
		return s
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	var builds []float64
	calls := map[string][]float64{}
	routes := map[string][]float64{}
	var hitCell, simCell, hitJob, missJob, tracedRun []float64
	for _, p := range traced {
		l := p.layers
		builds = append(builds, median(l.builds))
		for _, layer := range []string{"core", "beffio", "workload"} {
			calls[layer] = append(calls[layer], l.calls[layer])
		}
		for k, v := range l.routes {
			routes[k] = append(routes[k], v...)
		}
		hitCell = append(hitCell, l.hitCell...)
		simCell = append(simCell, l.simCell...)
		tracedRun = append(tracedRun, p.run.Seconds())
		for _, o := range p.ops {
			if o.miss {
				missJob = append(missJob, o.ms)
			} else {
				hitJob = append(hitJob, o.ms)
			}
		}
	}
	r.add("machine.build_s", median(builds), "s", len(builds))
	for _, layer := range []string{"core", "beffio", "workload"} {
		r.add(layer+".run_s", median(calls[layer]), "s", len(calls[layer]))
	}

	r.add("des.dispatches", get("des_dispatches_total"), "count", 0)
	r.add("des.clock_advances", get("des_clock_advances_total"), "count", 0)
	r.add("des.fast_advances", get("des_fast_advances_total"), "count", 0)
	r.add("des.heap_depth_max", get("des_heap_depth_max"), "count", 0)

	r.add("simnet.transfers", get("simnet_transfers_total"), "count", 0)
	r.add("simnet.bytes", get("simnet_bytes_total"), "B", 0)
	r.add("simnet.queued_transfers", get("simnet_queued_transfers_total"), "count", 0)
	hits, misses := get("simnet_route_cache_hits_total"), get("simnet_route_cache_misses_total")
	r.add("simnet.route_cache_hit_ratio", ratio(hits, hits+misses), "ratio", 0)

	r.add("mpi.messages", get("mpi_eager_messages_total")+get("mpi_rendezvous_messages_total"), "count", 0)
	r.add("mpi.rendezvous_messages", get("mpi_rendezvous_messages_total"), "count", 0)
	r.add("mpi.unexpected_matches", get("mpi_matches_unexpected_total"), "count", 0)
	poolHits := get("mpi_msg_pool_hits_total") + get("mpi_req_pool_hits_total") + get("mpi_buf_pool_hits_total")
	poolMisses := get("mpi_msg_pool_misses_total") + get("mpi_req_pool_misses_total") + get("mpi_buf_pool_misses_total")
	r.add("mpi.pool_hit_ratio", ratio(poolHits, poolHits+poolMisses), "ratio", 0)

	r.add("simfs.server_ops", get("simfs_server_ops_total"), "count", 0)
	r.add("simfs.disk_bytes", get("simfs_disk_bytes_written_total")+get("simfs_disk_bytes_read_total"), "B", 0)
	r.add("simfs.seeks", float64(first.seeks), "count", 0)
	cacheHits := get("simfs_cache_hits_total")
	r.add("simfs.cache_hit_ratio", ratio(cacheHits, cacheHits+float64(first.diskReads)), "ratio", 0)

	r.add("mpiio.collective_ops", get("mpiio_collective_ops_total"), "count", 0)
	r.add("mpiio.shuffle_bytes", get("mpiio_shuffle_bytes_total"), "B", 0)

	r.add("runner.hit_cell_ms_p50", median(hitCell), "ms", len(hitCell))
	r.add("runner.sim_cell_ms_p50", median(simCell), "ms", len(simCell))
	r.add("runner.cache_hits", get("beffd_cache_hits_total"), "count", 0)
	r.add("runner.dedupe_hits", get("beffd_dedupe_hits_total"), "count", 0)

	r.add("store.gets", get("store_gets_total"), "count", 0)
	r.add("store.get_misses", get("store_get_misses_total"), "count", 0)
	r.add("store.puts", get("store_puts_total"), "count", 0)
	r.add("store.compactions", get("store_compactions_total"), "count", 0)
	dead, live := get("store_bytes_dead"), get("store_bytes_live")
	r.add("store.dead_ratio", ratio(dead, dead+live), "ratio", 0)

	if len(routes["submit"]) == 0 {
		hitJob, missJob = nil, nil // no job went through serve; the ops were cells
	}
	r.add("serve.submit_ms_p50", median(routes["submit"]), "ms", len(routes["submit"]))
	r.add("serve.stream_ms_p50", median(routes["stream"]), "ms", len(routes["stream"]))
	r.add("serve.result_ms_p50", median(routes["result"]), "ms", len(routes["result"]))
	r.add("serve.admission_rejects", sumPrefix("beffd_admission_rejects_total"), "count", 0)
	r.add("serve.hit_ms_p50", median(hitJob), "ms", len(hitJob))
	r.add("serve.hit_ms_p99", quantile(hitJob, 0.99), "ms", len(hitJob))
	r.add("serve.miss_ms_p50", median(missJob), "ms", len(missJob))
	r.add("serve.miss_ms_p90", quantile(missJob, 0.90), "ms", len(missJob))

	r.add("check.failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio", res.Attempted)
	r.add("bench.trace_overhead_s", median(tracedRun)-baseline.Seconds(), "s", len(tracedRun))
	for _, layer := range cpuLayers {
		r.add(layer+".cpu_frac", shares[layer], "ratio", int(samples))
	}
	return nil
}
