package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"chainaudit/internal/obs"
)

// Context-layer metrics: tasks killed by the watchdog, and batches abandoned
// to cancellation.
var (
	mWatchdog  = obs.Default.Counter("pipeline.watchdog_timeouts")
	mCancelled = obs.Default.Counter("pipeline.cancelled")
)

// ErrWatchdog marks a task abandoned because it exceeded RunConfig.Timeout.
// Errors returned from EachCtx/MapCtx for such tasks wrap it.
var ErrWatchdog = errors.New("pipeline: watchdog timeout")

// RunConfig bounds the tasks of one EachCtx/MapCtx call. The zero value
// imposes nothing: no timeout — plain cancellable execution. There is no
// retry: tasks are deterministic, so a failed task would fail again.
type RunConfig struct {
	// Timeout is the per-task watchdog. A task still running when
	// it expires is abandoned (its goroutine is left to finish in the
	// background — Go cannot kill it — but the executor moves on) and
	// reported as an ErrWatchdog-wrapped error.
	Timeout time.Duration
}

// run runs f(i) with the watchdog applied, converting panics into errors
// that name the task. With no timeout the task runs inline; with one, it
// runs in a child goroutine so the executor can abandon it.
func (rc RunConfig) run(ctx context.Context, i int, f func(ctx context.Context, i int) error) error {
	call := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("pipeline: task %d panicked: %v", i, r)
			}
		}()
		return f(ctx, i)
	}
	if rc.Timeout <= 0 {
		return call()
	}
	actx, cancel := context.WithTimeout(ctx, rc.Timeout)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- call() }()
	select {
	case err := <-done:
		return err
	case <-actx.Done():
		if ctx.Err() != nil {
			// The batch was cancelled, not the watchdog firing.
			return ctx.Err()
		}
		mWatchdog.Inc()
		return fmt.Errorf("%w: task %d exceeded %v", ErrWatchdog, i, rc.Timeout)
	}
}

// EachCtx is Each with a context and per-task fault bounds: it invokes f for
// every i in [0, n) over the worker pool, stopping early when ctx is
// cancelled. Tasks already started run to completion (or watchdog); tasks
// not yet claimed are skipped. The per-index error slice is returned
// alongside a batch error: nil when everything ran, or a context error
// naming the first unfinished task index when cancellation left work undone.
// Panics inside f are converted to errors naming the task, never re-raised.
func (e *Executor) EachCtx(ctx context.Context, n int, rc RunConfig, f func(ctx context.Context, i int) error) ([]error, error) {
	errs := make([]error, n)
	if n <= 0 {
		return errs, ctx.Err()
	}
	mTasks.Add(int64(n))
	start := time.Now()
	workers := e.workers
	if workers > n {
		workers = n
	}
	var (
		cursor atomic.Int64
		busy   atomic.Int64
		done   = make([]atomic.Bool, n)
		wg     sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		for {
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			if ctx.Err() != nil {
				// Leave done[i] false: cancellation skipped this task.
				errs[i] = ctx.Err()
				continue
			}
			mQueueWait.Observe(time.Since(start))
			t0 := time.Now()
			errs[i] = rc.run(ctx, i, f)
			d := time.Since(t0)
			mTaskTime.Observe(d)
			mBusyNS.Add(int64(d))
			busy.Add(int64(d))
			if cause := ctx.Err(); cause == nil || errs[i] == nil || !errors.Is(errs[i], cause) {
				// Finished: ran to a definitive result (success, task error,
				// or watchdog) rather than being cut short by cancellation.
				done[i].Store(true)
			}
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()
	offered := int64(time.Since(start)) * int64(workers)
	mOfferedNS.Add(offered)
	if occ := float64(busy.Load()) / float64(offered); occ <= 1 {
		mOccupancy.Set(occ)
	} else {
		mOccupancy.Set(1)
	}
	if cerr := ctx.Err(); cerr != nil {
		for i := range done {
			if !done[i].Load() {
				mCancelled.Inc()
				return errs, fmt.Errorf("pipeline: cancelled with task %d unfinished: %w", i, cerr)
			}
		}
	}
	return errs, nil
}

// MapCtx computes f over [0, n) under ctx and rc, placing each value and
// error at its index. The batch error mirrors EachCtx: non-nil only when
// cancellation left tasks unfinished. Task-level failures (including
// watchdog timeouts) live in the per-index results, keeping
// error selection deterministic for the caller.
func MapCtx[T any](e *Executor, ctx context.Context, n int, rc RunConfig, f func(ctx context.Context, i int) (T, error)) ([]Result[T], error) {
	// Values publish through per-index atomics, not direct slice writes: a
	// watchdog-abandoned task cannot be killed, and when it eventually
	// finishes it must not race the caller reading the returned slice. Each
	// task stores its own value object; the deref below reads an immutable
	// pointee.
	vals := make([]atomic.Pointer[T], n)
	errs, batchErr := e.EachCtx(ctx, n, rc, func(ctx context.Context, i int) error {
		v, err := f(ctx, i)
		if err == nil {
			vals[i].Store(&v)
		}
		return err
	})
	out := make([]Result[T], n)
	for i, err := range errs {
		out[i].Err = err
		if err == nil {
			if p := vals[i].Load(); p != nil {
				out[i].Value = *p
			}
		}
	}
	return out, batchErr
}
