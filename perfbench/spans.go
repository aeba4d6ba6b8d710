package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// spanLog keeps benchmark-side spans in memory — workload pass → cell
// or job → layer call or HTTP route — and writes them as a Chrome
// trace (chrome://tracing, Perfetto) when the benchmark ends. A nil
// log records nothing.
type spanLog struct {
	t0 time.Time

	mu    sync.Mutex
	next  int64
	spans []chromeEvent
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds since the log began
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// span is an open span; end closes it. Children name it as parent by
// its id.
type span struct {
	log       *spanLog
	name, cat string
	tid       int
	id, par   int64
	start     time.Time
}

// begin opens a span on lane tid (a pass or a client) under parent.
func (l *spanLog) begin(name, cat string, tid int, parent int64) span {
	if l == nil {
		return span{}
	}
	l.mu.Lock()
	l.next++
	id := l.next
	l.mu.Unlock()
	return span{log: l, name: name, cat: cat, tid: tid, id: id, par: parent, start: time.Now()}
}

func (s span) end() {
	if s.log == nil {
		return
	}
	end := time.Now()
	ev := chromeEvent{
		Name: s.name, Cat: s.cat, Ph: "X", Pid: 1, Tid: s.tid,
		Ts:   float64(s.start.Sub(s.log.t0).Nanoseconds()) / 1e3,
		Dur:  float64(end.Sub(s.start).Nanoseconds()) / 1e3,
		Args: map[string]any{"id": s.id, "parent": s.par},
	}
	s.log.mu.Lock()
	s.log.spans = append(s.log.spans, ev)
	s.log.mu.Unlock()
}

// writeChrome writes every span as a Chrome trace-event JSON file.
func (l *spanLog) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	l.mu.Lock()
	data, err := json.Marshal(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{l.spans})
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
