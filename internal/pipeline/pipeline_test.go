package pipeline

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"chainaudit/internal/obs"
)

func TestEachRunsEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 1000
			hits := make([]int32, n)
			New(workers).Each(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("index %d ran %d times", i, h)
				}
			}
		})
	}
}

func TestEachEmptyAndTiny(t *testing.T) {
	Default().Each(0, func(int) { t.Fatal("called for n=0") })
	var ran int32
	Default().Each(1, func(int) { atomic.AddInt32(&ran, 1) })
	if ran != 1 {
		t.Fatalf("n=1 ran %d times", ran)
	}
}

func TestMapDeterministicOrder(t *testing.T) {
	const n = 500
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, e := range []*Executor{Serial(), Default(), New(3)} {
		got := MapWith(e, n, func(i int) int { return i * i })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("result[%d] = %d, want %d", i, got[i], want[i])
			}
		}
	}
}

func TestEachPropagatesPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "marker") {
			t.Fatalf("unexpected panic payload %v", r)
		}
	}()
	New(4).Each(100, func(i int) {
		if i == 42 {
			panic("marker")
		}
	})
}

// TestEachPanicNamesTaskIndex locks in the diagnostic contract: the surfaced
// panic must identify which task failed.
func TestEachPanicNamesTaskIndex(t *testing.T) {
	defer func() {
		r := recover()
		s, ok := r.(string)
		if !ok || !strings.Contains(s, "task 42") || !strings.Contains(s, "boom") {
			t.Fatalf("panic %v does not name task 42", r)
		}
	}()
	New(4).Each(100, func(i int) {
		if i == 42 {
			panic("boom")
		}
	})
}

// TestEachSerialPanicNamesTaskIndex: the single-worker reference path makes
// the same promise.
func TestEachSerialPanicNamesTaskIndex(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "task 7") {
			t.Fatalf("panic %v does not name task 7", r)
		}
	}()
	Serial().Each(10, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
}

// TestEachAllTasksPanicNoDeadlock fails every task on every worker: Each
// must drain the pool and re-raise (not deadlock waiting on dead workers),
// and the surfaced index must be the lowest panicking task each worker saw —
// a valid task index in range.
func TestEachAllTasksPanicNoDeadlock(t *testing.T) {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		New(8).Each(64, func(i int) { panic(fmt.Sprintf("all-%d", i)) })
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Fatal("no panic surfaced")
		}
		s := fmt.Sprint(r)
		if !strings.Contains(s, "pipeline: task ") || !strings.Contains(s, "all-") {
			t.Fatalf("unexpected panic payload %q", s)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Each deadlocked with all workers panicking")
	}
}

// TestEachPanicMidStreamStillDrains: one early panic must not stop other
// workers' claimed tasks from finishing before the re-raise.
func TestEachPanicMidStreamStillDrains(t *testing.T) {
	var ran atomic.Int64
	func() {
		defer func() { recover() }()
		New(4).Each(200, func(i int) {
			if i == 0 {
				panic("early")
			}
			ran.Add(1)
		})
	}()
	// Only forward progress and no deadlock here; TestEachRunsEveryTaskAfterPanic
	// holds the exact count.
	if ran.Load() == 0 {
		t.Fatal("no other task ran")
	}
}

// TestEachRunsEveryTaskAfterPanic: an early panic stops no other task, and
// the re-raised panic is the lowest panicking index's even when a higher
// index panics first.
func TestEachRunsEveryTaskAfterPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 200
		var ran atomic.Int64
		r := func() (r any) {
			defer func() { r = recover() }()
			New(workers).Each(n, func(i int) {
				ran.Add(1)
				switch i {
				case 3:
					time.Sleep(20 * time.Millisecond) // let the higher indices panic first
					panic("boom-3")
				case 150, 199:
					panic(fmt.Sprintf("boom-%d", i))
				}
			})
			return nil
		}()
		if ran.Load() != n {
			t.Errorf("workers=%d: %d of %d tasks ran after an early panic", workers, ran.Load(), n)
		}
		if s := fmt.Sprint(r); !strings.Contains(s, "task 3 panicked: boom-3") {
			t.Errorf("workers=%d: re-raised %q, want task 3's panic", workers, s)
		}
	}
}

func TestEachRecordsMetrics(t *testing.T) {
	tasks0 := obs.Default.Counter("pipeline.tasks").Value()
	busy0 := obs.Default.Counter("pipeline.busy_ns").Value()
	offered0 := obs.Default.Counter("pipeline.offered_ns").Value()
	count0 := obs.Default.Timer("pipeline.task").Stats().Count

	New(4).Each(32, func(i int) { time.Sleep(time.Millisecond) })

	if got := obs.Default.Counter("pipeline.tasks").Value() - tasks0; got != 32 {
		t.Errorf("tasks delta = %d, want 32", got)
	}
	if got := obs.Default.Timer("pipeline.task").Stats().Count - count0; got != 32 {
		t.Errorf("task timer delta = %d, want 32", got)
	}
	busy := obs.Default.Counter("pipeline.busy_ns").Value() - busy0
	offered := obs.Default.Counter("pipeline.offered_ns").Value() - offered0
	if busy <= 0 || offered <= 0 || busy > offered {
		t.Errorf("busy/offered = %d/%d", busy, offered)
	}
	if occ := obs.Default.Gauge("pipeline.occupancy").Value(); occ <= 0 || occ > 1 {
		t.Errorf("occupancy gauge = %v", occ)
	}
}

// TestEachConcurrentStress exercises the atomic cursor under -race.
func TestEachConcurrentStress(t *testing.T) {
	var sum int64
	const n = 10_000
	New(8).Each(n, func(i int) { atomic.AddInt64(&sum, int64(i)) })
	if want := int64(n) * (n - 1) / 2; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}
