package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by this program around the
// call (the program under test is not instrumented). Spans of one ingest
// batch, audit or reproduction share Req.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends. A
// disabled tracer records nothing and costs one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns the function that closes it, with its id
// for children.
func (t *tracer) begin(name string, req int64, parent int) (int, func()) {
	if !t.on {
		return 0, func() {}
	}
	start := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: start})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// selfTimes returns, per span name, the summed self time (duration minus the
// part of the interval its children cover) and the span count.
func (t *tracer) selfTimes() (map[string]time.Duration, map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self, count := map[string]time.Duration{}, map[string]int{}
	for _, s := range t.spans {
		covered := int64(0)
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		cur := [2]int64{-1, -1}
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > cur[1] {
				covered += cur[1] - cur[0]
				cur = [2]int64{lo, hi}
			} else if hi > cur[1] {
				cur[1] = hi
			}
		}
		covered += cur[1] - cur[0]
		self[s.Name] += time.Duration(s.End - s.Start - covered)
		count[s.Name]++
	}
	return self, count
}

// report writes the spans out and adds each layer's self time to the run's
// figures.
func (t *tracer) report(r *run) {
	self, count := t.selfTimes()
	for _, name := range sortedNames(self) {
		r.fig("self."+name+"_ms", float64(self[name])/float64(time.Millisecond))
		r.fig("spans."+name, float64(count[name]))
	}
	t.mu.Lock()
	raw, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
		return
	}
	path := filepath.Join(r.bin, fmt.Sprintf("spans-%s-%d.json", r.workload, r.seed))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
	}
}
