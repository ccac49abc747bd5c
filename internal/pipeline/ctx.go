package pipeline

import (
	"context"
	"errors"
	"fmt"
	"time"

	"chainaudit/internal/obs"
)

// mWatchdog counts calls Bounded abandoned to its watchdog.
var mWatchdog = obs.Default.Counter("pipeline.watchdog_timeouts")

// ErrWatchdog marks a call Bounded abandoned because it outran its timeout.
var ErrWatchdog = errors.New("pipeline: watchdog timeout")

// Bounded calls f under ctx and a watchdog and returns what f returns. A
// panic in f comes back as an error. A positive timeout runs f on its own
// goroutine under a child context that expires with the timeout: if f has
// not returned by then, Bounded abandons it and returns an
// ErrWatchdog-wrapped error (Go cannot kill the goroutine; it finishes in
// the background with its context cancelled, and its result is dropped).
// When ctx itself ends first, Bounded returns ctx.Err() instead. A timeout
// of zero or less runs f inline with no watchdog.
//
// f hands its result back only by returning it, so an abandoned call never
// writes where the caller reads. Bounded is the only place in this package
// a call can outlive its caller; fan-out tasks never do.
func Bounded[T any](ctx context.Context, timeout time.Duration, f func(ctx context.Context) (T, error)) (T, error) {
	type result struct {
		v   T
		err error
	}
	call := func(ctx context.Context) (r result) {
		p, err := protect(func() (err error) {
			r.v, err = f(ctx)
			return err
		})
		if p != nil {
			return result{err: fmt.Errorf("pipeline: call panicked: %v", p)}
		}
		r.err = err
		return r
	}
	if timeout <= 0 {
		r := call(ctx)
		return r.v, r.err
	}
	bctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	done := make(chan result, 1)
	go func() { done <- call(bctx) }()
	select {
	case r := <-done:
		// A call that failed once its bound had expired was cut short by
		// it: report the bound, whichever case the select picked.
		if r.err == nil || bctx.Err() == nil {
			return r.v, r.err
		}
	case <-bctx.Done():
	}
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	mWatchdog.Inc()
	return zero, fmt.Errorf("%w: call exceeded %v", ErrWatchdog, timeout)
}
