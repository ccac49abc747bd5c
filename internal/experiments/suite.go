// Package experiments regenerates every table and figure of the paper's
// evaluation from freshly simulated data sets. Each experiment returns a
// report.Table or report.Figure carrying the same rows/series the paper
// reports; cmd/reproduce prints them and perfbench times each one
// (experiments.<id>_ms).
// EXPERIMENTS.md records the paper-vs-measured comparison for each.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/core"
	"chainaudit/internal/dataset"
	"chainaudit/internal/faults"
	"chainaudit/internal/index"
	"chainaudit/internal/obs"
	"chainaudit/internal/poolid"
	"chainaudit/internal/report"
	"chainaudit/internal/sim"
	"chainaudit/internal/stats"
)

// Suite holds the built data sets all experiments draw from, plus the
// shared audit indexes the analyses consume. Data sets come from the
// process-local dataset cache, so two suites with the same (seed, scale)
// share one simulation; indexes are built lazily, once per suite.
type Suite struct {
	Seed    uint64
	A, B, C *dataset.Dataset
	rng     *stats.RNG
	// chaos is the fault plan the data sets were built under (nil for clean
	// runs). Degraded-mode figures annotate their coverage when it is active.
	chaos *faults.Plan

	aIdxOnce sync.Once
	aIdx     *index.BlockIndex
	cIdxOnce sync.Once
	cIdx     *index.BlockIndex
}

// NewSuite builds the three data sets at the given scale. Scale 1 targets a
// bench/test budget (A 12 h, B 16 h, C 48 h of simulated time); pass larger
// scales from cmd/reproduce or cmd/gendata for paper-sized spans. Builds go
// through dataset.Cached, so repeated suites in one process (benchmarks,
// tests) stop re-simulating.
func NewSuite(seed uint64, scale float64) (*Suite, error) {
	return NewSuiteChaos(seed, scale, nil)
}

// NewSuiteChaos builds the suite's data sets under a fault plan: every
// simulation runs with the plan's injectors wired in, and the degraded-mode
// figures annotate the coverage their statistics were computed at. A nil or
// zero-rate plan reproduces NewSuite exactly (and shares its cache entries).
func NewSuiteChaos(seed uint64, scale float64, plan *faults.Plan) (*Suite, error) {
	if scale <= 0 {
		scale = 1
	}
	defer obs.Timed("experiment.suite_build")()
	s := &Suite{Seed: seed, rng: stats.NewRNG(seed ^ 0xE59), chaos: plan}
	var err error
	if s.A, err = dataset.Cached(dataset.BuilderA, dataset.Options{Seed: seed + 1, Duration: scaleDur(12*time.Hour, scale), Faults: plan}); err != nil {
		return nil, fmt.Errorf("experiments: building A: %w", err)
	}
	if s.B, err = dataset.Cached(dataset.BuilderB, dataset.Options{Seed: seed + 2, Duration: scaleDur(16*time.Hour, scale), Faults: plan}); err != nil {
		return nil, fmt.Errorf("experiments: building B: %w", err)
	}
	if s.C, err = dataset.Cached(dataset.BuilderC, dataset.Options{Seed: seed + 3, Duration: scaleDur(48*time.Hour, scale), Faults: plan}); err != nil {
		return nil, fmt.Errorf("experiments: building C: %w", err)
	}
	return s, nil
}

// degraded reports whether the suite's data sets were built under an active
// fault plan — the gate for coverage annotations, so clean runs render
// byte-identically to pre-fault-layer output.
func (s *Suite) degraded() bool {
	return s.chaos.Active()
}

// annotateSeenCoverage adds the observer's first-seen coverage note to a
// figure whose statistics skip transactions the observer never heard about.
func (s *Suite) annotateSeenCoverage(f *report.Figure, ds *dataset.Dataset) {
	if !s.degraded() {
		return
	}
	cov := core.SeenCoverage(ds.Result.Chain, seenRecords(ds.Result.Observer(ds.Name)))
	f.AddNote("%s: first-seen %s of confirmed txs; unseen txs excluded", ds.Name, cov)
}

// AIndex returns the shared audit index over data set A's chain.
func (s *Suite) AIndex() *index.BlockIndex {
	s.aIdxOnce.Do(func() {
		defer obs.Timed("experiment.index_build.A")()
		s.aIdx = index.Build(s.A.Result.Chain, s.A.Registry)
	})
	return s.aIdx
}

// CIndex returns the shared audit index over data set C's chain — the one
// the PPE, self-interest, and dark-fee analyses all consume.
func (s *Suite) CIndex() *index.BlockIndex {
	s.cIdxOnce.Do(func() {
		defer obs.Timed("experiment.index_build.C")()
		s.cIdx = index.Build(s.C.Result.Chain, s.C.Registry)
	})
	return s.cIdx
}

// CAuditor returns an auditor over the shared C index — the AuditOptions
// entry point the experiments and chainauditd both consume. The wrapper is
// cheap; the index underneath is built once per suite.
func (s *Suite) CAuditor() *core.Auditor {
	return core.NewIndexedAuditor(s.CIndex())
}

func scaleDur(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale)
}

// seenRecords converts an observer's first-contact map to the audit
// engine's shape.
func seenRecords(obs *sim.ObserverData) map[chain.TxID]core.SeenRecord {
	out := make(map[chain.TxID]core.SeenRecord, len(obs.Seen))
	for id, info := range obs.Seen {
		out[id] = core.SeenRecord{
			TipHeight:  info.TipHeight,
			Congestion: info.Congestion,
			FeeRate:    info.FeeRate,
		}
	}
	return out
}

// payoutSet converts a pool's recorded payout txids to a set.
func payoutSet(ids []chain.TxID) map[chain.TxID]bool {
	set := make(map[chain.TxID]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return set
}

// top6C returns the six largest pools of data set C by estimated share,
// from the shared index's cached attribution.
func (s *Suite) top6C() []string {
	top := poolid.TopShares(s.CIndex().Shares(), 6)
	names := make([]string, len(top))
	for i, sh := range top {
		names[i] = sh.Pool
	}
	return names
}
