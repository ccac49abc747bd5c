// Package obs is the reproduction's observability layer: a dependency-free
// metrics registry (counters, gauges, timer histograms) plus a structured
// run-manifest writer (manifest.go). The hot layers — the simulator, the
// parallel pipeline executor, the data-set cache, and the experiments suite
// — record into the package-level Default registry; cmd/reproduce snapshots
// it into a JSON manifest so every run's per-stage timings, cache hit rates,
// and worker utilization are inspectable after the fact instead of being
// hand-copied into docs.
//
// Everything here is safe for concurrent use. Counters and gauges are a
// single atomic word; timers take a short mutex per observation. Recording
// never influences experiment results (metrics observe wall time, they do
// not feed back into any simulation or audit), so instrumented parallel runs
// stay byte-identical to serial ones.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be any non-negative delta; negative deltas are a caller
// bug but are not rejected, keeping the hot path branch-free).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-write-wins float metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value (zero before any Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// timerSampleCap bounds a timer's retained samples. When the buffer fills,
// every other sample is dropped and the sampling stride doubles, so
// percentiles over long runs are computed from a deterministic thinning of
// the observation stream rather than an unbounded buffer.
const timerSampleCap = 8192

// Timer accumulates durations and reports count/total/min/max plus
// p50/p95/p99 over its (possibly thinned) sample buffer.
type Timer struct {
	mu      sync.Mutex
	count   int64
	total   time.Duration
	min     time.Duration
	max     time.Duration
	stride  int64 // record every stride-th observation once thinned
	samples []time.Duration
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.count++
	t.total += d
	if t.count == 1 || d < t.min {
		t.min = d
	}
	if d > t.max {
		t.max = d
	}
	if t.stride == 0 {
		t.stride = 1
	}
	if t.count%t.stride != 0 {
		return
	}
	t.samples = append(t.samples, d)
	if len(t.samples) >= timerSampleCap {
		kept := t.samples[:0]
		for i := 1; i < len(t.samples); i += 2 {
			kept = append(kept, t.samples[i])
		}
		t.samples = kept
		t.stride *= 2
	}
}

// Time starts a stopwatch; the returned stop function records the elapsed
// duration. Use as `defer timer.Time()()`.
func (t *Timer) Time() func() {
	start := time.Now()
	return func() { t.Observe(time.Since(start)) }
}

// TimerStats is a point-in-time summary of a Timer, in milliseconds (the
// manifest's unit).
type TimerStats struct {
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	MinMS   float64 `json:"min_ms"`
	MaxMS   float64 `json:"max_ms"`
	P50MS   float64 `json:"p50_ms"`
	P95MS   float64 `json:"p95_ms"`
	P99MS   float64 `json:"p99_ms"`
}

// Stats summarizes the timer. Percentiles use the nearest-rank method over
// the retained samples.
func (t *Timer) Stats() TimerStats {
	t.mu.Lock()
	s := TimerStats{
		Count:   t.count,
		TotalMS: durMS(t.total),
		MinMS:   durMS(t.min),
		MaxMS:   durMS(t.max),
	}
	sorted := append([]time.Duration(nil), t.samples...)
	t.mu.Unlock()
	if len(sorted) == 0 {
		return s
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := func(p float64) time.Duration {
		i := int(p*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	s.P50MS = durMS(rank(0.50))
	s.P95MS = durMS(rank(0.95))
	s.P99MS = durMS(rank(0.99))
	return s
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Registry is an independent namespace of metrics. Most code records into
// Default; tests that need isolation create their own.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*Timer),
	}
}

// Default is the process-wide registry every instrumented layer records
// into.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use. Hot paths
// should hoist the returned pointer rather than re-resolving the name per
// event.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the named timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.timers[name]
	if t == nil {
		t = &Timer{stride: 1}
		r.timers[name] = t
	}
	return t
}

// Snapshot is a point-in-time copy of a registry's metrics, JSON-shaped for
// the run manifest. Map iteration order is irrelevant: encoding/json sorts
// keys, so serialized snapshots are stable.
type Snapshot struct {
	Counters map[string]int64      `json:"counters"`
	Gauges   map[string]float64    `json:"gauges"`
	Timers   map[string]TimerStats `json:"timers"`
}

// Snapshot copies out every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	timers := make(map[string]*Timer, len(r.timers))
	for k, v := range r.timers {
		timers[k] = v
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters: make(map[string]int64, len(counters)),
		Gauges:   make(map[string]float64, len(gauges)),
		Timers:   make(map[string]TimerStats, len(timers)),
	}
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range timers {
		s.Timers[k] = v.Stats()
	}
	return s
}

// Reset drops every metric (for tests that need a cold registry).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = make(map[string]*Counter)
	r.gauges = make(map[string]*Gauge)
	r.timers = make(map[string]*Timer)
}

// Package-level conveniences over Default, for call sites that are not hot
// enough to warrant hoisting.

// Inc increments the named Default counter.
func Inc(name string) { Default.Counter(name).Inc() }

// Timed starts a stopwatch on the named Default timer; use as
// `defer obs.Timed("experiment.fig7")()`.
func Timed(name string) func() { return Default.Timer(name).Time() }
