package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestCacheWaiterOutlivesLeaderContext: a request waiting on another's
// computation of the same key shares its result, and its failure too,
// unless that computation was cut short by its own request's context (a
// tighter watchdog, a client gone); then the waiter computes afresh.
func TestCacheWaiterOutlivesLeaderContext(t *testing.T) {
	for _, tc := range []struct {
		name      string
		leaderErr error
		wantFresh bool
	}{
		{"leader deadline", context.DeadlineExceeded, true},
		{"leader cancelled", context.Canceled, true},
		{"leader failed", errors.New("boom"), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newResultCache()
			started, release := make(chan struct{}), make(chan struct{})
			leader := make(chan error, 1)
			go func() {
				_, err := c.do("s", "k", func() (*payload, error) {
					close(started)
					<-release
					return nil, tc.leaderErr
				})
				leader <- err
			}()
			<-started
			waiter := make(chan error, 1)
			var res cached
			go func() {
				var err error
				res, err = c.do("s", "k", func() (*payload, error) { return &payload{Text: "fresh"}, nil })
				waiter <- err
			}()
			time.Sleep(50 * time.Millisecond) // let the waiter block on the leader's computation; a wait inside sync.Once has no event to wait on
			close(release)
			if err := <-leader; !errors.Is(err, tc.leaderErr) {
				t.Fatalf("leader error = %v, want %v", err, tc.leaderErr)
			}
			err := <-waiter
			if tc.wantFresh {
				if err != nil || res.p == nil || res.p.Text != "fresh" || res.hit {
					t.Fatalf("waiter = %+v, %v; want its own fresh computation", res, err)
				}
			} else if !errors.Is(err, tc.leaderErr) {
				t.Fatalf("waiter error = %v, want the leader's %v", err, tc.leaderErr)
			}
		})
	}
}
