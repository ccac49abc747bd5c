package miner

import (
	"errors"
	"time"

	"chainaudit/internal/stats"
)

// TargetBlockInterval is the protocol's difficulty-adjusted mean time
// between blocks.
const TargetBlockInterval = 10 * time.Minute

// Scheduler drives block discovery: inter-block times are exponential with
// the target mean (a Poisson process), and each block's winner is drawn
// proportionally to hash rate. Hash rates need not sum to one — the
// remainder is won by a synthetic "Unknown" pool, mirroring the ~1.3% of
// blocks the paper could not attribute.
type Scheduler struct {
	pools   []*Pool
	unknown *Pool
	rng     *stats.RNG
	mean    time.Duration
	cum     []float64
	total   float64
}

// ErrNoPools reports a scheduler constructed without pools.
var ErrNoPools = errors.New("miner: scheduler needs at least one pool")

// NewScheduler creates a scheduler over the pools using the provided RNG
// stream. If the pools' rates sum below one, the residual probability is
// assigned to an anonymous pool with no marker.
func NewScheduler(pools []*Pool, rng *stats.RNG) (*Scheduler, error) {
	if len(pools) == 0 {
		return nil, ErrNoPools
	}
	s := &Scheduler{pools: pools, rng: rng, mean: TargetBlockInterval}
	for _, p := range pools {
		if p.HashRate < 0 {
			return nil, errors.New("miner: negative hash rate")
		}
		s.total += p.HashRate
		s.cum = append(s.cum, s.total)
	}
	if s.total < 1 {
		s.unknown = NewPool("Unknown", "", 1-s.total, 1)
		s.total = 1
	}
	return s, nil
}

// SetMeanInterval overrides the mean inter-block time (useful for
// compressed-time simulations and tests).
func (s *Scheduler) SetMeanInterval(d time.Duration) { s.mean = d }

// NextBlockAfter returns when the next block is found (an exponential
// inter-arrival after now) and which pool wins it.
func (s *Scheduler) NextBlockAfter(now time.Time) (time.Time, *Pool) {
	dt := time.Duration(float64(s.mean) * s.rng.ExpFloat64())
	if dt <= 0 {
		dt = time.Millisecond
	}
	return now.Add(dt), s.PickWinner()
}

// PickWinner draws a pool proportionally to hash rate.
func (s *Scheduler) PickWinner() *Pool {
	u := s.rng.Float64() * s.total
	for i, c := range s.cum {
		if u < c {
			return s.pools[i]
		}
	}
	if s.unknown != nil {
		return s.unknown
	}
	return s.pools[len(s.pools)-1]
}
