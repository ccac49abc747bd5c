package obs

import (
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Errorf("counter = %d, want 42", c.Value())
	}
	if r.Counter("c") != c {
		t.Error("Counter is not get-or-create")
	}
	g := r.Gauge("g")
	if g.Value() != 0 {
		t.Errorf("fresh gauge = %v", g.Value())
	}
	g.Set(0.75)
	if g.Value() != 0.75 {
		t.Errorf("gauge = %v, want 0.75", g.Value())
	}
}

func TestTimerStats(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("t")
	for i := 1; i <= 100; i++ {
		tm.Observe(time.Duration(i) * time.Millisecond)
	}
	s := tm.Stats()
	if s.Count != 100 {
		t.Errorf("count = %d", s.Count)
	}
	if s.MinMS != 1 || s.MaxMS != 100 {
		t.Errorf("min/max = %v/%v", s.MinMS, s.MaxMS)
	}
	if s.TotalMS != 5050 {
		t.Errorf("total = %v", s.TotalMS)
	}
	if s.P50MS < 49 || s.P50MS > 51 {
		t.Errorf("p50 = %v", s.P50MS)
	}
	if s.P95MS < 94 || s.P95MS > 96 {
		t.Errorf("p95 = %v", s.P95MS)
	}
	if s.P99MS < 98 || s.P99MS > 100 {
		t.Errorf("p99 = %v", s.P99MS)
	}
}

func TestTimerEmptyStats(t *testing.T) {
	s := NewRegistry().Timer("t").Stats()
	if s.Count != 0 || s.P50MS != 0 || s.TotalMS != 0 {
		t.Errorf("empty timer stats = %+v", s)
	}
}

// TestTimerThinning drives a timer far past its sample cap: the retained
// buffer must stay bounded while count/total remain exact.
func TestTimerThinning(t *testing.T) {
	tm := NewRegistry().Timer("t")
	const n = 100_000
	for i := 0; i < n; i++ {
		tm.Observe(time.Millisecond)
	}
	s := tm.Stats()
	if s.Count != n {
		t.Errorf("count = %d, want %d", s.Count, n)
	}
	if s.TotalMS != n {
		t.Errorf("total = %v, want %d", s.TotalMS, n)
	}
	tm.mu.Lock()
	kept := len(tm.samples)
	tm.mu.Unlock()
	if kept >= timerSampleCap {
		t.Errorf("samples grew to %d, cap %d", kept, timerSampleCap)
	}
	if s.P50MS != 1 || s.P99MS != 1 {
		t.Errorf("percentiles after thinning: %+v", s)
	}
}

func TestTimerTimeHelper(t *testing.T) {
	tm := NewRegistry().Timer("t")
	stop := tm.Time()
	time.Sleep(2 * time.Millisecond)
	stop()
	if s := tm.Stats(); s.Count != 1 || s.MaxMS < 1 {
		t.Errorf("timed stats = %+v", s)
	}
}

func TestSnapshotAndReset(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(3)
	r.Gauge("occ").Set(0.5)
	r.Timer("build").Observe(10 * time.Millisecond)
	s := r.Snapshot()
	if s.Counters["hits"] != 3 || s.Gauges["occ"] != 0.5 || s.Timers["build"].Count != 1 {
		t.Errorf("snapshot = %+v", s)
	}
	r.Reset()
	s = r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Timers) != 0 {
		t.Errorf("post-reset snapshot not empty: %+v", s)
	}
}

// TestConcurrentRecording exercises every metric type from many goroutines;
// run under -race this is the data-race gate for the registry.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(float64(w))
				r.Timer("t").Observe(time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["c"] != 8000 {
		t.Errorf("counter = %d, want 8000", s.Counters["c"])
	}
	if s.Timers["t"].Count != 8000 {
		t.Errorf("timer count = %d, want 8000", s.Timers["t"].Count)
	}
}

func TestPackageLevelHelpers(t *testing.T) {
	Default.Reset()
	defer Default.Reset()
	Inc("x")
	done := Timed("z")
	done()
	s := Default.Snapshot()
	if s.Counters["x"] != 1 || s.Timers["z"].Count != 1 {
		t.Errorf("helpers snapshot = %+v", s)
	}
}
