package core_test

// Divergence-audit tests: flagging semantics over planted ledgers, option
// resolution, and determinism — the same ledger audited twice (including
// concurrently, for the -race gate) must produce identical reports.

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/core"
	"chainaudit/internal/index"
	"chainaudit/internal/stats"
)

// divLedger builds a synthetic ledger of n transactions: "a" sees each at
// its base time, "b" with a small cycling sub-threshold skew (nonzero
// median), "lag" delayed by lag.
func divLedger(n int, lag time.Duration) *index.Ledger {
	base := time.Unix(1_700_000_000, 0)
	bySrc := map[string]map[chain.TxID]time.Time{"a": {}, "b": {}, "lag": {}}
	for i := 0; i < n; i++ {
		var id chain.TxID
		copy(id[:], fmt.Sprintf("div-%08d", i))
		t := base.Add(time.Duration(i) * time.Second)
		skew := time.Duration(i%4) * 25 * time.Millisecond
		bySrc["a"][id] = t
		bySrc["b"][id] = t.Add(skew)
		bySrc["lag"][id] = t.Add(lag)
	}
	ledger := &index.Ledger{}
	for _, src := range []string{"a", "b", "lag"} {
		ledger.Observe(src, bySrc[src])
	}
	return ledger
}

func TestDivergenceFlagsPlantedLaggardOnly(t *testing.T) {
	rep := core.DivergenceAudit(divLedger(40, 5*time.Second), core.DivergenceOptions{})
	if got := rep.FlaggedSources(); len(got) != 1 || got[0] != "lag" {
		t.Fatalf("flagged %v, want [lag]", got)
	}
	if rep.SharedTxs != 40 {
		t.Errorf("SharedTxs = %d, want 40", rep.SharedTxs)
	}
	if len(rep.Pairs) != 3 {
		t.Fatalf("pairs = %d, want 3", len(rep.Pairs))
	}
	for _, s := range rep.Sources {
		if s.Source == "lag" {
			if s.MedianOffset != 5*time.Second || s.Leads != 0 {
				t.Errorf("laggard row = %+v", s)
			}
		} else if s.Flagged {
			t.Errorf("clean source %s flagged: %+v", s.Source, s)
		}
	}
}

func TestDivergenceOptionResolution(t *testing.T) {
	ledger := divLedger(4, 5*time.Second) // below the default MinShared of 5
	if got := core.DivergenceAudit(ledger, core.DivergenceOptions{}).FlaggedSources(); got != nil {
		t.Errorf("under-shared laggard flagged: %v", got)
	}
	// Lowering MinShared flags it; a negative threshold means "flag any lag".
	rep := core.DivergenceAudit(ledger, core.DivergenceOptions{MinShared: 2})
	if got := rep.FlaggedSources(); len(got) != 1 || got[0] != "lag" {
		t.Errorf("MinShared=2 flagged %v", got)
	}
	rep = core.DivergenceAudit(divLedger(40, 100*time.Millisecond), core.DivergenceOptions{Threshold: -1})
	flagged := map[string]bool{}
	for _, s := range rep.FlaggedSources() {
		flagged[s] = true
	}
	if !flagged["lag"] || !flagged["b"] {
		t.Errorf("no-threshold run flagged %v, want lag and b", rep.FlaggedSources())
	}
	if flagged["a"] {
		t.Error("no-threshold run flagged the always-earliest source")
	}
	// Threshold above the planted lag clears everything.
	rep = core.DivergenceAudit(divLedger(40, 5*time.Second), core.DivergenceOptions{Threshold: 10 * time.Second})
	if got := rep.FlaggedSources(); got != nil {
		t.Errorf("above-lag threshold flagged %v", got)
	}
	// An empty or single-source ledger yields an empty report, not a panic.
	if rep := core.DivergenceAudit(nil, core.DivergenceOptions{}); len(rep.Sources) != 0 || rep.SharedTxs != 0 {
		t.Errorf("nil ledger report = %+v", rep)
	}
}

// TestDivergenceDeterministic runs the same audit many times, several
// concurrently, and demands bit-identical reports; the concurrent runs put
// the shared-ledger reads under the race detector. Independence from the
// order of the ledger's rows is TestDivergenceMatchesMapOracle's to check.
func TestDivergenceDeterministic(t *testing.T) {
	ledger := divLedger(64, 3*time.Second)
	want := core.DivergenceAudit(ledger, core.DivergenceOptions{})
	var wg sync.WaitGroup
	got := make([]*core.DivergenceReport, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = core.DivergenceAudit(ledger, core.DivergenceOptions{})
		}(i)
	}
	wg.Wait()
	for i, rep := range got {
		if !reflect.DeepEqual(rep, want) {
			t.Fatalf("run %d diverged:\ngot  %+v\nwant %+v", i, rep, want)
		}
	}
}

// TestDivergenceMatchesMapOracle holds the one-pass audit over the arrival
// ledger to the map-of-maps audit it replaced (MapLedgerDivergence), report
// for report, over seeded random ledgers: one to six sources interned in
// an order that is not name order, partial coverage, sightings that tie,
// re-sightings earlier or later than the first, anonymous sightings,
// dropped rows, a source whose every sighting was dropped, and times at
// both ends of the int64 range, where offsets saturate. The last lines
// check that the seeds reached every one of those cases.
func TestDivergenceMatchesMapOracle(t *testing.T) {
	names := []string{"alpha", "beta", "delta", "epsilon", "gamma", "zeta"}
	extremes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, math.MaxInt64 - 1, math.MaxInt64}
	optsChoice := []core.DivergenceOptions{{}, {Threshold: -1, MinShared: -1}, {Threshold: 200 * time.Millisecond, MinShared: 2}}
	var pruned, saturated, tied int
	for seed := uint64(1); seed <= 500; seed++ {
		rng := stats.NewRNG(seed)
		srcs := slices.Clone(names[:1+rng.Intn(len(names))])
		rng.Shuffle(len(srcs), func(i, j int) { srcs[i], srcs[j] = srcs[j], srcs[i] })
		ids := make([]chain.TxID, 1+rng.Intn(30))
		for i := range ids {
			binary.BigEndian.PutUint64(ids[i][:], rng.Uint64())
			ids[i][31] = byte(i)
		}
		at := func() time.Time {
			if rng.Intn(12) == 0 {
				return time.Unix(0, extremes[rng.Intn(len(extremes))])
			}
			return time.Unix(1_700_000_000, int64(rng.Intn(6))*int64(250*time.Millisecond))
		}
		model := map[chain.TxID]map[string]time.Time{}
		var ledger index.Ledger
		for op := 2 + rng.Intn(14); op > 0; op-- {
			switch k := rng.Intn(12); {
			case k == 0: // drop one transaction
				id := ids[rng.Intn(len(ids))]
				delete(model, id)
				ledger.Drop(id)
			case k == 1: // drop every transaction one source saw
				src := srcs[rng.Intn(len(srcs))]
				for id, bySrc := range model {
					if _, ok := bySrc[src]; ok {
						delete(model, id)
						ledger.Drop(id)
					}
				}
			default:
				src := srcs[rng.Intn(len(srcs))]
				if k < 4 {
					src = []string{index.SourceAnonymous, ""}[k-2]
				}
				seen := map[chain.TxID]time.Time{}
				for _, id := range ids {
					if rng.Intn(3) == 0 {
						seen[id] = at()
					}
				}
				ledger.Observe(src, seen)
				if k < 4 || len(seen) == 0 {
					continue
				}
				for id, ts := range seen {
					bySrc := model[id]
					if bySrc == nil {
						bySrc = map[string]time.Time{}
						model[id] = bySrc
					}
					if prev, ok := bySrc[src]; !ok || ts.Before(prev) {
						bySrc[src] = ts
					}
				}
			}
		}
		opts := optsChoice[rng.Intn(len(optsChoice))]
		got, want := core.DivergenceAudit(&ledger, opts), core.MapLedgerDivergence(model, opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: ledger audit diverged from the map oracle:\ngot  %+v\nwant %+v", seed, got, want)
		}
		if len(ledger.Sources()) > len(got.Sources) {
			pruned++
		}
		leads := 0
		for _, s := range got.Sources {
			leads += s.Leads
			if s.MaxOffset == math.MaxInt64 {
				saturated++
			}
		}
		if leads > got.SharedTxs {
			tied++
		}
	}
	if pruned == 0 || saturated == 0 || tied == 0 {
		t.Errorf("seeds missed a case: %d with a pruned source, %d with a saturated offset, %d with tied leads", pruned, saturated, tied)
	}
	t.Logf("%d seeds with a pruned source, %d with a saturated offset, %d with tied leads", pruned, saturated, tied)
}
