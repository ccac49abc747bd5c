// Package pipeline provides the deterministic parallel executor the audit
// layers fan out on. Work items are identified by index; results are always
// placed back at the item's index, so the merged output of a parallel run is
// bit-identical to the serial loop it replaces regardless of worker count or
// scheduling. The executor is allocation-light (one goroutine per worker, an
// atomic cursor for work stealing) so it is safe to use for both coarse
// stages (one experiment per task) and fine ones (one block per task).
//
// Every Each call records into the obs.Default registry: per-task queue wait
// and run time (timers "pipeline.queue_wait" / "pipeline.task"), a task
// counter ("pipeline.tasks"), and the raw material of worker occupancy —
// busy worker-nanoseconds against offered worker-nanoseconds (counters
// "pipeline.busy_ns" / "pipeline.offered_ns"); the gauge
// "pipeline.occupancy" holds the most recent Each's ratio. Metrics observe
// wall time only and never feed back into scheduling, so instrumented
// parallel output stays byte-identical to serial.
package pipeline

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"chainaudit/internal/obs"
)

// Hoisted metric handles: Each is called from hot loops, so the name lookup
// happens once per process, not once per call.
var (
	mTasks     = obs.Default.Counter("pipeline.tasks")
	mQueueWait = obs.Default.Timer("pipeline.queue_wait")
	mTaskTime  = obs.Default.Timer("pipeline.task")
	mBusyNS    = obs.Default.Counter("pipeline.busy_ns")
	mOfferedNS = obs.Default.Counter("pipeline.offered_ns")
	mOccupancy = obs.Default.Gauge("pipeline.occupancy")
)

// Executor runs indexed work items over a fixed-size worker pool.
type Executor struct {
	workers int
}

// New returns an executor with the given worker count; counts below one
// select runtime.GOMAXPROCS(0).
func New(workers int) *Executor {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Executor{workers: workers}
}

// Default returns an executor sized to the machine (GOMAXPROCS workers).
func Default() *Executor { return New(0) }

// Serial returns a single-worker executor — the reference serial path.
//
//lint:allow deadcode seam: the pipeline and index equivalence tests run the serial reference with it (TestMapDeterministicOrder, TestMapCtxMatchesSerialOutput, TestBuildSerialParallelIdentical)
func Serial() *Executor { return New(1) }

// Workers returns the pool size.
func (e *Executor) Workers() int { return e.workers }

// runTask invokes f(i), timing it and converting a panic into one that
// identifies the failing task index — on a 16-wide fan-out over 5000 blocks,
// "task 3127 panicked" is the difference between a reproducible case and a
// shrug. It returns the task's run time (unused when f panics).
func runTask(i int, f func(i int)) time.Duration {
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("pipeline: task %d panicked: %v", i, r))
		}
	}()
	start := time.Now()
	f(i)
	d := time.Since(start)
	mTaskTime.Observe(d)
	mBusyNS.Add(int64(d))
	return d
}

// Each invokes f(i) for every i in [0, n), distributing indices over the
// worker pool and blocking until all complete. Indices are claimed with an
// atomic cursor, so f must not assume any execution order; determinism comes
// from writing results keyed by i. A panic in any f is re-raised on the
// calling goroutine after the pool drains — Each never deadlocks on a
// panicking task — and the re-raised message names the failing task index
// (when several tasks panic concurrently, the lowest index wins, keeping the
// surfaced failure stable across schedules).
func (e *Executor) Each(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	mTasks.Add(int64(n))
	start := time.Now()
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			runTask(i, f)
		}
		wall := time.Since(start)
		mOfferedNS.Add(int64(wall))
		mOccupancy.Set(1)
		return
	}
	var (
		cursor atomic.Int64
		busy   atomic.Int64
		wg     sync.WaitGroup
		pmu    sync.Mutex
		pidx   int
		pval   any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			cur := -1
			defer func() {
				if r := recover(); r != nil {
					pmu.Lock()
					if pval == nil || cur < pidx {
						pidx, pval = cur, r
					}
					pmu.Unlock()
				}
			}()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				cur = i
				mQueueWait.Observe(time.Since(start))
				busy.Add(int64(runTask(i, f)))
			}
		}()
	}
	wg.Wait()
	offered := int64(time.Since(start)) * int64(workers)
	mOfferedNS.Add(offered)
	if occ := float64(busy.Load()) / float64(offered); occ <= 1 {
		mOccupancy.Set(occ)
	} else {
		mOccupancy.Set(1)
	}
	if pval != nil {
		panic(pval)
	}
}

// MapWith computes f(i) for every i in [0, n) on the executor and returns
// the results in index order.
func MapWith[T any](e *Executor, n int, f func(i int) T) []T {
	out := make([]T, n)
	e.Each(n, func(i int) { out[i] = f(i) })
	return out
}

// Map computes f over [0, n) on a machine-sized pool, results in index
// order.
func Map[T any](n int, f func(i int) T) []T {
	return MapWith(Default(), n, f)
}

// Result pairs a value with the error its task produced, for fan-outs whose
// stages can fail.
type Result[T any] struct {
	Value T
	Err   error
}
