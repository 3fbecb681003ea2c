package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval. Spans of one request (or one harness
// repetition) share ID; Parent names the span that caused this one.
// Start and End are nanoseconds since the log's epoch.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Due is set on request roots: when the open loop owed the request.
	Due *int64 `json:"due_ns,omitempty"`
}

// spanLog keeps spans in memory and writes them when the run ends.
type spanLog struct {
	mu       sync.Mutex
	epoch    time.Time
	spans    []span
	counters map[string]float64
}

func newSpanLog() *spanLog {
	return &spanLog{epoch: time.Now(), counters: map[string]float64{}}
}

func (l *spanLog) since(t time.Time) int64 { return int64(t.Sub(l.epoch)) }

// timed records a real start/end span around fn.
func (l *spanLog) timed(name, id, parent string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Start: l.since(start), End: l.since(end)})
	l.mu.Unlock()
	return end.Sub(start)
}

const rootSpan = "client.submit_resolve"

// addRequests turns a traced phase's records into spans: one root per
// request, and one child per Tx.Trace phase. The systems record phase
// durations, not instants (spans inside internal/ are a later issue), so
// a child carries its true length anchored at the root's start; a
// layer's self time — root minus the part its children cover — is
// reported as trace.unattributed_us.
func (l *spanLog) addRequests(recs []record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range recs {
		r := &recs[i]
		id := r.tx.ID.String()
		due := l.since(r.due)
		l.spans = append(l.spans, span{Name: rootSpan, ID: id, Start: l.since(r.start), End: l.since(r.end), Due: &due})
		names := make([]string, 0, len(r.phases))
		for name := range r.phases {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			start := l.since(r.start)
			l.spans = append(l.spans, span{
				Name: "trace." + name, ID: id, Parent: rootSpan, Start: start, End: start + int64(r.phases[name]),
			})
		}
	}
}

func (l *spanLog) counter(name string, v float64) {
	l.mu.Lock()
	l.counters[name] = v
	l.mu.Unlock()
}

// write stores the log as one JSON document.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		Spans    []span             `json:"spans"`
		Counters map[string]float64 `json:"counters"`
	}{l.spans, l.counters})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
