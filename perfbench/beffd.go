package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcbench/beff/internal/check"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/serve"
)

// The beffd-mixed load: closed-loop clients against an in-process
// server with 2 pool workers, which matches a 2-CPU host.
const (
	beffdClients = 2
	beffdWorkers = 2
	missShare    = 10 // one job in missShare simulates
)

// hitJob is a request whose every cell the set-up put in the cache;
// golden names each cell's file in the golden corpus, which the served
// bytes must equal.
type hitJob struct {
	body   string
	golden []string
}

// goldenBeff is the golden corpus's b_eff cell options as a request.
const goldenBeff = `"procs":[8],"lmax_override":65536,"max_looplength":2`

var (
	hitJobs = []hitJob{
		{`{"bench":"beff","machines":["t3e"],` + goldenBeff + `}`, []string{"beff_t3e.json"}},
		{`{"bench":"beff","machines":["sp"],` + goldenBeff + `}`, []string{"beff_sp.json"}},
		{`{"bench":"beff","machines":["cluster"],` + goldenBeff + `}`, []string{"beff_cluster.json"}},
		{`{"bench":"beff","machines":["t3e","sp","cluster"],` + goldenBeff + `}`, []string{"beff_t3e.json", "beff_sp.json", "beff_cluster.json"}},
		{`{"bench":"beffio","machines":["t3e"],"procs":[4],"t_seconds":0.5}`, []string{"beffio_t3e.json"}},
	}
	// warmJobs are the set-up's requests: the golden corpus's
	// t3e,sp,cluster b_eff sweep and its t3e b_eff_io cell, which
	// together cache every cell of every hit job.
	warmJobs     = hitJobs[3:]
	missMachines = []string{"t3e", "sp", "cluster"}
)

// A miss is a tiny b_eff cell at a seed no earlier job used.
const missProcs = 4

func missOptions(seed int64) core.Options {
	return core.Options{LmaxOverride: 1 << 16, Seed: seed, MaxLooplength: 2, Reps: 1}
}

// job is one planned request.
type job struct {
	hit     *hitJob // nil for a miss
	machine string  // miss only
	seed    int64   // miss only
}

func (j job) body() string {
	if j.hit != nil {
		return j.hit.body
	}
	return fmt.Sprintf(`{"bench":"beff","machines":[%q],"procs":[%d],"lmax_override":65536,"max_looplength":2,"seed":%d}`,
		j.machine, missProcs, j.seed)
}

func (j job) cells() int {
	if j.hit != nil {
		return len(j.hit.golden)
	}
	return 1
}

// jobOut is what a client saw of one job.
type jobOut struct {
	lat    time.Duration
	missed bool   // some cell was not served from the cache
	body   []byte // every cell's bytes, concatenated in cell order
	err    error
}

type beffdMixed struct {
	seed   int64
	jobs   int                // per pass
	golden map[*hitJob][]byte // every cell's golden bytes, concatenated in cell order
	dir    string
}

func newBeffdMixed(cfg config) (*beffdMixed, error) {
	b := &beffdMixed{seed: cfg.seed, jobs: 600, golden: map[*hitJob][]byte{}}
	if cfg.size == "tiny" {
		b.jobs = 40
	}
	for i := range hitJobs {
		h := &hitJobs[i]
		for _, g := range h.golden {
			data, err := os.ReadFile(filepath.Join(cfg.root, "internal", "check", "testdata", "golden", g))
			if err != nil {
				return nil, fmt.Errorf("golden corpus: %w", err)
			}
			b.golden[h] = append(b.golden[h], data...)
		}
	}
	b.dir = filepath.Join(cfg.workDir, fmt.Sprintf("beffd-%d", os.Getpid()))
	return b, nil
}

func (b *beffdMixed) close() error { return os.RemoveAll(b.dir) }

// plan builds a pass's jobs so that every pass does the same work:
// exactly one job in missShare is a miss, the misses split evenly over
// the miss machines, and the hits split evenly over the hit jobs. The
// seed drives the order and the misses' seeds, each unique within the
// run.
func (b *beffdMixed) plan(index int) []job {
	misses := b.jobs / missShare
	seedBase := 2 + (b.seed&0xfffff)<<24 + int64(index*b.jobs)
	jobs := make([]job, b.jobs)
	for i := range jobs {
		if i < misses {
			jobs[i] = job{machine: missMachines[i%len(missMachines)], seed: seedBase + int64(i)}
		} else {
			jobs[i] = job{hit: &hitJobs[i%len(hitJobs)]}
		}
	}
	rng := rand.New(rand.NewSource(b.seed*1_000_003 + int64(index)))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// server is one set-up: a fresh cache directory behind serve's handler
// on a loopback listener.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	dir    string
	done   chan error
}

func (b *beffdMixed) start(index int, tr *tracer) (*server, error) {
	dir := filepath.Join(b.dir, fmt.Sprintf("cache-%d", index))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Workers: beffdWorkers, CacheDir: dir, Registry: tr.registry()})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		return nil, err
	}
	s := &server{
		srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), dir: dir,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * beffdClients}},
		done:   make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the service and waits for the listener goroutine.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.srv.Drain(ctx)
	if e := s.hs.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-s.done; err == nil && !errors.Is(e, http.ErrServerClosed) {
		err = e
	}
	s.client.CloseIdleConnections()
	if e := os.RemoveAll(s.dir); err == nil {
		err = e
	}
	return err
}

func (b *beffdMixed) pass(index int, tr *tracer) (*passResult, error) {
	p := &passResult{}
	ps := tr.begin(fmt.Sprintf("beffd-mixed pass %d", index), "workload", 0)
	jobs := b.plan(index)

	// Collect the previous phase's garbage so that it is not charged to
	// this timed one; likewise before the run.
	runtime.GC()
	steal0 := readSteal()
	t0 := time.Now()
	s, err := b.start(index, tr)
	if err != nil {
		return nil, err
	}
	for i := range warmJobs {
		if out := s.do(job{hit: &warmJobs[i]}, "warm", 0, tr, ps.id); out.err != nil {
			s.stop()
			return nil, fmt.Errorf("warm the cache: %w", out.err)
		}
	}
	p.setups = append(p.setups, time.Since(t0))

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	outs := make([]jobOut, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 = time.Now()
	for c := 0; c < beffdClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := fmt.Sprintf("c%d", c)
			lane := 100*index + c + 1
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				js := tr.beginOn(lane, "job", "job", ps.id)
				outs[i] = s.do(jobs[i], client, lane, tr, js.id)
				js.end()
				if h := jobs[i].hit; h != nil && outs[i].err == nil {
					if !bytes.Equal(outs[i].body, b.golden[h]) {
						outs[i].err = fmt.Errorf("%s: served cells differ from the golden corpus %v", h.body, h.golden)
					}
					outs[i].body = nil
				}
			}
		}(c)
	}
	wg.Wait()
	p.run = time.Since(t0)
	p.wall, p.steal = p.run, readSteal()-steal0
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	ps.end()
	tr.untimed()
	if err := s.stop(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}

	// Audit the misses outside the timed region: re-simulate each one
	// through the public calls and compare bytes; the re-simulation
	// also counts the messages the server simulated.
	for i, o := range outs {
		p.ops = append(p.ops, op{ms: ms(o.lat), miss: o.missed})
		err := o.err
		if err == nil && jobs[i].hit == nil {
			var msgs int64
			msgs, err = resimulate(jobs[i], o.body, tr)
			p.msgs += msgs
		}
		if err != nil {
			p.ops[i].failed = true
			fmt.Fprintf(os.Stderr, "perfbench: beffd-mixed job %d: %v\n", i, err)
		}
	}
	p.layers = tr.done()
	return p, nil
}

// resimulate runs a miss's cell locally and checks that the served
// bytes equal its encoding and that the result passes the b_eff audit.
// It returns the number of simulated messages.
func resimulate(j job, served []byte, tr *tracer) (int64, error) {
	p, err := machine.Lookup(j.machine)
	if err != nil {
		return 0, err
	}
	w, err := p.BuildWorld(missProcs)
	if err != nil {
		return 0, err
	}
	tr.instrument(&w, nil)
	res, err := core.Run(w, missOptions(j.seed))
	if err != nil {
		return 0, err
	}
	chk := check.New()
	chk.VerifyBeff(res)
	if err := chk.Finish(); err != nil {
		return 0, err
	}
	want, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(served, append(want, '\n')) {
		return 0, fmt.Errorf("served miss %s seed %d differs from its local simulation", j.machine, j.seed)
	}
	return w.Net.Messages(), nil
}

// do runs one job as a client does: submit, stream until done, fetch
// every cell. The latency covers those three; the traced run then also
// reads the job status for the per-cell elapsed_ms. Lane 0 is the
// set-up, whose requests are not route samples.
func (s *server) do(j job, client string, lane int, tr *tracer, parent int64) jobOut {
	timed := lane != 0
	var out jobOut
	t0 := time.Now()
	fail := func(err error) jobOut {
		out.lat, out.err = time.Since(t0), err
		return out
	}

	sp := tr.beginOn(lane, "POST /api/v1/sweeps", "http", parent)
	t := time.Now()
	data, err := s.call(http.MethodPost, "/api/v1/sweeps", client, j.body(), http.StatusAccepted)
	if timed {
		tr.route("submit", time.Since(t))
	}
	sp.end()
	if err != nil {
		return fail(err)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return fail(fmt.Errorf("submit: %w", err))
	}

	sp = tr.beginOn(lane, "GET /api/v1/jobs/{id}/stream", "http", parent)
	t = time.Now()
	data, err = s.call(http.MethodGet, "/api/v1/jobs/"+st.ID+"/stream?interval=0s", client, "", http.StatusOK)
	if timed {
		tr.route("stream", time.Since(t))
	}
	sp.end()
	if err != nil {
		return fail(err)
	}
	sum, err := lastLine(data)
	if err != nil {
		return fail(err)
	}
	if !sum.Done || sum.Job.CellsFailed > 0 || sum.Job.CellsDone != j.cells() {
		return fail(fmt.Errorf("job %s ended %s with %d of %d cells done, %d failed",
			st.ID, sum.Job.State, sum.Job.CellsDone, j.cells(), sum.Job.CellsFailed))
	}
	out.missed = sum.Job.CellsCached < sum.Job.CellsTotal

	for i := 0; i < j.cells(); i++ {
		sp = tr.beginOn(lane, "GET /api/v1/jobs/{id}/cells/{index}", "http", parent)
		t = time.Now()
		data, err = s.call(http.MethodGet, fmt.Sprintf("/api/v1/jobs/%s/cells/%d", st.ID, i), client, "", http.StatusOK)
		if timed {
			tr.route("result", time.Since(t))
		}
		sp.end()
		if err != nil {
			return fail(err)
		}
		out.body = append(out.body, data...)
	}
	out.lat = time.Since(t0)

	if tr != nil && timed {
		data, err := s.call(http.MethodGet, "/api/v1/jobs/"+st.ID, client, "", http.StatusOK)
		if err != nil {
			return fail(err)
		}
		var full serve.JobStatus
		if err := json.Unmarshal(data, &full); err != nil {
			return fail(fmt.Errorf("job status: %w", err))
		}
		for _, c := range full.Cells {
			tr.cell(c.Cached, c.ElapsedMs)
		}
	}
	return out
}

// call makes one request and returns the body if the status is want.
func (s *server) call(method, path, client, body string, want int) ([]byte, error) {
	req, err := http.NewRequest(method, s.base+path, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Beff-Client", client)
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// streamSummary is the stream's final line.
type streamSummary struct {
	Done bool            `json:"done"`
	Job  serve.JobStatus `json:"job"`
}

func lastLine(ndjson []byte) (streamSummary, error) {
	var sum streamSummary
	last := ndjson[bytes.LastIndexByte(bytes.TrimSpace(ndjson), '\n')+1:]
	if err := json.Unmarshal(last, &sum); err != nil {
		return sum, fmt.Errorf("stream summary: %w", err)
	}
	return sum, nil
}
