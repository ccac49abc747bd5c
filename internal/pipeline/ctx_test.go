package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestEachCtxRunsAll(t *testing.T) {
	var ran atomic.Int64
	errs, err := New(4).EachCtx(context.Background(), 100, func(ctx context.Context, i int) error {
		ran.Add(1)
		return nil
	})
	if err != nil {
		t.Fatalf("batch error: %v", err)
	}
	if ran.Load() != 100 {
		t.Fatalf("ran %d of 100 tasks", ran.Load())
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("task %d: %v", i, e)
		}
	}
}

// TestEachCtxCancelMidBatch pins the satellite requirement: cancelling a
// batch in flight drains every worker (no goroutine leak) and the batch
// error names the first unfinished task index.
func TestEachCtxCancelMidBatch(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var started atomic.Int64
	const n = 64
	errs, err := New(4).EachCtx(ctx, n, func(ctx context.Context, i int) error {
		if started.Add(1) == 4 {
			cancel() // all four workers are mid-task; cancel while the queue is deep
			close(release)
		}
		<-release
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
			return nil
		}
	})
	defer cancel()
	if err == nil {
		t.Fatal("cancelled batch returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error does not wrap context.Canceled: %v", err)
	}
	// The error must name the first (lowest) unfinished index, and that index
	// must actually be unfinished per the per-task errors.
	first := -1
	for i, e := range errs {
		if e != nil && errors.Is(e, context.Canceled) {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatal("no per-task cancellation errors despite batch cancellation")
	}
	want := fmt.Sprintf("task %d unfinished", first)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("batch error %q does not name first unfinished index (%s)", err, want)
	}
	// Workers must have drained: give the runtime a moment, then compare
	// goroutine counts. Allow slack for runtime background goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after cancel: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestEachCtxCancelSkipsUnclaimed(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any task is claimed
	var ran atomic.Int64
	errs, err := New(4).EachCtx(ctx, 10, func(ctx context.Context, i int) error {
		ran.Add(1)
		return nil
	})
	if ran.Load() != 0 {
		t.Fatalf("%d tasks ran under a pre-cancelled context", ran.Load())
	}
	if err == nil || !strings.Contains(err.Error(), "task 0 unfinished") {
		t.Fatalf("want batch error naming task 0, got %v", err)
	}
	for i, e := range errs {
		if !errors.Is(e, context.Canceled) {
			t.Fatalf("task %d error = %v, want context.Canceled", i, e)
		}
	}
}

// TestBounded covers the one watchdog: a hung call is abandoned with
// ErrWatchdog, a cancelled parent reports its own error rather than the
// watchdog's, and a panic comes back as an error.
func TestBounded(t *testing.T) {
	t.Run("hung", func(t *testing.T) {
		hung := make(chan struct{})
		defer close(hung)
		start := time.Now()
		_, err := Bounded(context.Background(), 50*time.Millisecond, func(ctx context.Context) (int, error) {
			<-hung // simulated hang: never returns on its own
			return 1, nil
		})
		if !errors.Is(err, ErrWatchdog) {
			t.Fatalf("hung call error = %v, want ErrWatchdog", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("Bounded hung for %v despite its watchdog", elapsed)
		}
	})
	t.Run("parent cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := Bounded(ctx, time.Minute, func(ctx context.Context) (int, error) {
			cancel()
			<-ctx.Done()
			return 0, ctx.Err()
		})
		if !errors.Is(err, context.Canceled) || errors.Is(err, ErrWatchdog) {
			t.Fatalf("cancelled parent error = %v, want context.Canceled and not ErrWatchdog", err)
		}
	})
	t.Run("panic", func(t *testing.T) {
		for _, timeout := range []time.Duration{0, time.Minute} {
			_, err := Bounded(context.Background(), timeout, func(ctx context.Context) (int, error) {
				panic("boom")
			})
			if err == nil || !strings.Contains(err.Error(), "panicked: boom") {
				t.Fatalf("timeout %v: panic not converted to an error: %v", timeout, err)
			}
		}
	})
	t.Run("returns", func(t *testing.T) {
		for _, timeout := range []time.Duration{0, time.Minute} {
			v, err := Bounded(context.Background(), timeout, func(ctx context.Context) (string, error) {
				return "ok", nil
			})
			if v != "ok" || err != nil {
				t.Fatalf("timeout %v: Bounded = %q, %v", timeout, v, err)
			}
		}
	})
}

func TestEachCtxPanicBecomesError(t *testing.T) {
	errs, err := New(2).EachCtx(context.Background(), 4, func(ctx context.Context, i int) error {
		if i == 2 {
			panic("boom")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("batch error: %v", err)
	}
	if errs[2] == nil || !strings.Contains(errs[2].Error(), "task 2 panicked: boom") {
		t.Fatalf("panic not converted to a task-naming error: %v", errs[2])
	}
	for _, i := range []int{0, 1, 3} {
		if errs[i] != nil {
			t.Fatalf("healthy task %d errored: %v", i, errs[i])
		}
	}
}

func TestMapCtxMatchesSerialOutput(t *testing.T) {
	f := func(ctx context.Context, i int) (string, error) {
		return fmt.Sprintf("v%03d", i), nil
	}
	serial, err := MapCtx(Serial(), context.Background(), 32, f)
	if err != nil {
		t.Fatal(err)
	}
	par, err := MapCtx(New(8), context.Background(), 32, f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("index %d: serial %+v vs parallel %+v", i, serial[i], par[i])
		}
	}
}
