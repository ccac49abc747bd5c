// Package pipeline provides the deterministic parallel executor the audit
// layers fan out on, and Bounded, the one place a call can be abandoned to
// a watchdog. Work items are identified by index; results are always
// placed back at the item's index, so the merged output of a parallel run is
// bit-identical to the serial loop it replaces regardless of worker count or
// scheduling. The executor is allocation-light (one goroutine per worker, an
// atomic cursor for work stealing) so it is safe to use for both coarse
// stages (one experiment per task) and fine ones (one block per task).
//
// Every fan-out records into the obs.Default registry: per-task queue wait
// and run time (timers "pipeline.queue_wait" / "pipeline.task"), a task
// counter ("pipeline.tasks"), and the raw material of worker occupancy —
// busy worker-nanoseconds against offered worker-nanoseconds (counters
// "pipeline.busy_ns" / "pipeline.offered_ns"); the gauge
// "pipeline.occupancy" holds the most recent fan-out's ratio. Metrics
// observe wall time only and never feed back into scheduling, so
// instrumented parallel output stays byte-identical to serial.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"chainaudit/internal/obs"
)

// Hoisted metric handles: fan-outs are called from hot loops, so the name
// lookup happens once per process, not once per call.
var (
	mTasks     = obs.Default.Counter("pipeline.tasks")
	mQueueWait = obs.Default.Timer("pipeline.queue_wait")
	mTaskTime  = obs.Default.Timer("pipeline.task")
	mBusyNS    = obs.Default.Counter("pipeline.busy_ns")
	mOfferedNS = obs.Default.Counter("pipeline.offered_ns")
	mOccupancy = obs.Default.Gauge("pipeline.occupancy")
	mCancelled = obs.Default.Counter("pipeline.cancelled")
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

// protect calls f and recovers a panic in it, returning the panic value
// (nil when f returned) beside f's error. Its callers name what panicked:
// on a 16-wide fan-out over 5000 blocks, "task 3127 panicked" is the
// difference between a reproducible case and a shrug.
func protect(f func() error) (panicked any, err error) {
	defer func() { panicked = recover() }()
	return nil, f()
}

// EachCtx invokes f for every i in [0, n) over the worker pool and blocks
// until the pool drains. Indices are claimed with an atomic cursor, so f
// must not assume any execution order; determinism comes from writing
// results keyed by i. Once ctx is cancelled, tasks not yet claimed are
// skipped with ctx's error; tasks already running finish. A panic in f
// becomes that task's error, naming its index, and never stops the other
// tasks. The per-index error slice is returned alongside a batch error:
// nil when everything ran, or a context error naming the first unfinished
// task index when cancellation left work undone.
func (e *Executor) EachCtx(ctx context.Context, n int, f func(ctx context.Context, i int) error) ([]error, error) {
	errs := make([]error, n)
	if n <= 0 {
		return errs, ctx.Err()
	}
	mTasks.Add(int64(n))
	start := time.Now()
	workers := min(e.workers, n)
	var (
		cursor atomic.Int64
		busy   atomic.Int64
		wg     sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		for {
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			mQueueWait.Observe(time.Since(start))
			t0 := time.Now()
			p, err := protect(func() error { return f(ctx, i) })
			if p != nil {
				err = fmt.Errorf("pipeline: task %d panicked: %v", i, p)
			}
			errs[i] = err
			d := time.Since(t0)
			mTaskTime.Observe(d)
			mBusyNS.Add(int64(d))
			busy.Add(int64(d))
		}
	}
	// The calling goroutine is one of the workers, so a serial executor
	// starts no goroutine at all.
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go worker()
	}
	worker()
	wg.Wait()
	offered := int64(time.Since(start)) * int64(workers)
	mOfferedNS.Add(offered)
	mOccupancy.Set(min(float64(busy.Load())/float64(offered), 1))
	if cerr := ctx.Err(); cerr != nil {
		// A task is unfinished when cancellation skipped it or cut it short.
		for i, err := range errs {
			if err != nil && errors.Is(err, cerr) {
				mCancelled.Inc()
				return errs, fmt.Errorf("pipeline: cancelled with task %d unfinished: %w", i, cerr)
			}
		}
	}
	return errs, nil
}

// Each invokes f(i) for every i in [0, n) on the worker pool (see EachCtx).
// Every task runs even when some panic; once the pool drains, Each re-raises
// the lowest-index panic on the calling goroutine — a failure that names
// its task index and is stable across schedules.
func (e *Executor) Each(n int, f func(i int)) {
	errs, _ := e.EachCtx(context.Background(), n, func(_ context.Context, i int) error {
		f(i)
		return nil
	})
	for _, err := range errs {
		if err != nil {
			panic(err.Error())
		}
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

// MapCtx computes f over [0, n) under ctx, placing each value and error at
// its index; a failed task's Value is the zero value. The batch error
// mirrors EachCtx: non-nil only when cancellation left tasks unfinished.
// Task-level failures live in the per-index results, keeping error
// selection deterministic for the caller. Every task has returned before
// MapCtx does, so results are written in place.
func MapCtx[T any](e *Executor, ctx context.Context, n int, f func(ctx context.Context, i int) (T, error)) ([]Result[T], error) {
	out := make([]Result[T], n)
	errs, batchErr := e.EachCtx(ctx, n, func(ctx context.Context, i int) error {
		v, err := f(ctx, i)
		if err == nil {
			out[i].Value = v
		}
		return err
	})
	for i, err := range errs {
		out[i].Err = err
	}
	return out, batchErr
}
