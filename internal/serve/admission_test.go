package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"testing"
)

// TestOversizedSweepRejectedBeforeExpansion: a sweep whose cell count
// exceeds the queue is refused with 503 queue_full from its axes alone.
// Expanding first would panic on the task slice's capacity (reps near
// 1<<62) or allocate without bound (axis products beyond an int).
func TestOversizedSweepRejectedBeforeExpansion(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueLimit: 4})
	for _, tc := range []struct {
		name, body, need string
	}{
		{"huge-reps",
			fmt.Sprintf(`{"bench":"beff","machines":["t3e"],"procs":[4],"reps":%d}`, int64(1)<<62),
			"4611686018427387904"},
		{"machines-x-procs",
			`{"bench":"beff","machines":["t3e","sp","cluster"],"procs":[2,4]}`, "6"},
		{"product-overflows",
			fmt.Sprintf(`{"bench":"beffio","machines":["t3e","sp"],"procs":[2,4],"reps":%d}`, int64(1)<<62),
			"9223372036854775807"},
		{"fleet-huge-reps",
			fmt.Sprintf(`{"fleet":true,"machines":["t3e"],"procs":[4],"perturb":"stormy","reps":%d}`, int64(1)<<62),
			"4611686018427387905"},
		{"fleet-product-overflows",
			fmt.Sprintf(`{"fleet":true,"procs":[2,4,8],"perturb":"stormy","reps":%d}`, int64(1)<<62),
			"9223372036854775807"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, data := postClient(t, ts, "/api/v1/sweeps", tc.body, "big")
			if code != http.StatusServiceUnavailable || errCode(t, data) != "queue_full" {
				t.Fatalf("status %d, want 503 queue_full: %s", code, data)
			}
			if !bytes.Contains(data, []byte("needs "+tc.need+" cells")) {
				t.Fatalf("rejection does not report the %s-cell count: %s", tc.need, data)
			}
		})
	}
	snap := s.Registry().Snapshot()
	if v, _ := snap.Get(`beffd_admission_rejects_total{client="big",reason="queue_full"}`); v.Value != 5 {
		t.Fatalf("queue_full rejects %v, want 5", v.Value)
	}
	// The rejections consumed nothing: a sweep that fills the queue
	// exactly is still admitted.
	code, data := post(t, ts, "/api/v1/sweeps", `{"bench":"beff","machines":["t3e","sp"],"procs":[2,4],"lmax_override":1024,"max_looplength":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("queue-filling sweep: status %d, want 202: %s", code, data)
	}
}

// fuzzQueueLimit is the queue FuzzSweepRequest plans against: small, so
// admitted sweeps stay cheap to expand and most axis products land on
// either side of it.
const fuzzQueueLimit = 64

// FuzzSweepRequest drives arbitrary bytes through the submit path up to
// admission (planSweep): decode with unknown fields rejected,
// normalize, validate, count, and expand only a sweep that fits the
// queue. It must never panic; an error carries a 400 code; a sweep
// that fits expands to exactly its computed count, and one that does
// not is never expanded.
func FuzzSweepRequest(f *testing.F) {
	for _, body := range []string{
		// docs/API.md examples.
		`{"bench":"beff","machines":["t3e","sp"],"procs":[8,16],"reps":3,"perturb":"stormy","seed":1,"max_looplength":8,"client":"nightly-sweep"}`,
		`{"bench":"workload","machines":["bb"],"procs":[8],"workload":{"name":"bursty-checkpoint","seed":7,"phases":[` +
			`{"name":"checkpoint","pattern":{"op":"bursty","count":4,"burst":4,"gap_ms":50,"body":{"op":"shared","count":2,"chunk":65536}}},` +
			`{"name":"restart-read","pattern":{"op":"repeat","count":2,"body":{"op":"shared","count":8,"chunk":65536,"read":true}}}]}}`,
		goldenSpec,
		// A fleet survey (docs/OPERATIONS.md) and the shapes the bound
		// exists for.
		`{"fleet":true,"procs":[4,16,64],"reps":3,"perturb":"stormy"}`,
		`{"bench":"beffio","machines":["t3e"],"procs":[4],"t_seconds":2,"shards":2}`,
		`{"bench":"beff","machines":["t3e"],"procs":[4],"reps":4611686018427387904}`,
		`{"fleet":true,"machines":["t3e","sx5"],"procs":[2,8,1024],"perturb":"stormy","reps":9223372036854775807}`,
		`{"bench":"beff","machines":["t3e"],"procs":[4],"nosuch":1}`,
		`{`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		p, code, err := planSweep(bytes.NewReader(body), fuzzQueueLimit, nil, nil)
		if err != nil {
			if code != "bad_request" && code != "invalid_request" {
				t.Fatalf("error %v carries code %q", err, code)
			}
			return
		}
		switch {
		case p.cells < 1:
			t.Fatalf("valid sweep counts %d cells", p.cells)
		case p.cells > fuzzQueueLimit && p.tasks != nil:
			t.Fatalf("sweep of %d cells expanded beyond the %d-cell queue", p.cells, fuzzQueueLimit)
		case p.cells <= fuzzQueueLimit && len(p.tasks) != p.cells:
			t.Fatalf("sweep counted %d cells but expanded to %d", p.cells, len(p.tasks))
		case p.req.Fleet && p.cells <= fuzzQueueLimit && len(p.refs) == 0:
			t.Fatal("admissible fleet sweep has no point refs")
		}
	})
}
