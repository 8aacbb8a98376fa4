package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark, around a call into a
// layer. Spans of one request share Request; Parent is the ID of the span
// that caused this one (0 for a root).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Request string `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanSink collects spans in memory until the run ends. A nil sink records
// nothing, so the measured window pays for no tracing at all.
type spanSink struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanSink() *spanSink {
	// Sized for the busiest live pass, so appends do not reallocate inside it.
	return &spanSink{t0: time.Now(), spans: make([]span, 0, 1<<17)}
}

// add records a finished span and returns its ID.
func (s *spanSink) add(parent int64, request, name string, start, end time.Time) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := int64(len(s.spans) + 1)
	s.spans = append(s.spans, span{
		ID: id, Parent: parent, Request: request, Name: name,
		StartNs: start.Sub(s.t0).Nanoseconds(), EndNs: end.Sub(s.t0).Nanoseconds(),
	})
	return id
}

// open reserves a root span whose children are recorded before it ends, and
// names its request after its own ID; close stamps its end.
func (s *spanSink) open(name string, start time.Time) (id int64, request string) {
	if s == nil {
		return 0, ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id = int64(len(s.spans) + 1)
	request = strconv.FormatInt(id, 10)
	at := start.Sub(s.t0).Nanoseconds()
	s.spans = append(s.spans, span{ID: id, Request: request, Name: name, StartNs: at, EndNs: at})
	return id, request
}

func (s *spanSink) close(id int64, end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.spans[id-1].EndNs = end.Sub(s.t0).Nanoseconds()
	s.mu.Unlock()
}

// requestIDHeader is the header httpd's RequestID middleware honours. The
// traced client sends its client.request span's request name in it, which is
// that span's ID: the handler span finds its parent there.
const requestIDHeader = "X-Request-Id"

// wrapHandler times the daemon's whole middleware chain from outside: one
// httpd.handler span per request, child of the client span that sent it.
func (s *spanSink) wrapHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		request := r.Header.Get(requestIDHeader)
		parent, _ := strconv.ParseInt(request, 10, 64) // 0 (a root) for an untraced caller
		s.add(parent, request, "httpd.handler", start, time.Now())
	})
}

// durationsByRequest returns the duration in µs of every span called name,
// keyed by request.
func (s *spanSink) durationsByRequest(name string) map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]float64)
	for _, sp := range s.spans {
		if sp.Name == name && sp.Request != "" {
			out[sp.Request] = float64(sp.EndNs-sp.StartNs) / 1e3
		}
	}
	return out
}

// write dumps every span as one JSON document.
func (s *spanSink) write(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := json.Marshal(s.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
