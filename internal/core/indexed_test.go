package core_test

// Equivalence tests pinning the Auditor's grid and table audits to their
// chain-walking serial references: same dataset, same inputs, bit-identical
// outputs. These are the hard guarantee behind the shared-index design —
// the parallel, record-reading paths must never drift from the paper's
// serial methodology. The randomized equivalence over retained and
// windowed indexes lives in equivalence_test.go.

import (
	"sort"
	"testing"
	"time"

	"chainaudit/internal/core"
	"chainaudit/internal/dataset"
	"chainaudit/internal/index"
	"chainaudit/internal/poolid"
	"chainaudit/internal/stats"
)

// eqSummary compares summaries bit-for-bit, except that NaN equals NaN
// (single-sample pools have an undefined Std).
func eqSummary(a, b stats.Summary) bool {
	eq := func(x, y float64) bool { return x == y || (x != x && y != y) }
	return a.N == b.N && eq(a.Mean, b.Mean) && eq(a.Std, b.Std) && eq(a.Min, b.Min) &&
		eq(a.P25, b.P25) && eq(a.Median, b.Median) && eq(a.P75, b.P75) && eq(a.Max, b.Max)
}

func buildA(t testing.TB) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Cached(dataset.BuilderA, dataset.Options{Seed: 11, Duration: 4 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestPPEReportMatchesSerialAndSorts(t *testing.T) {
	ds := buildA(t)
	c, reg := ds.Result.Chain, ds.Registry
	aud := core.NewIndexedAuditor(index.Build(c, reg))
	rep := aud.AuditPPE(core.AuditOptions{MinBlocks: 1})

	// Serial reference: per-block PPE grouped by attribution.
	var all []float64
	perPool := map[string][]float64{}
	for _, b := range c.Blocks() {
		v, ok := core.PPE(b)
		if !ok {
			continue
		}
		all = append(all, v)
		perPool[reg.AttributeBlock(b)] = append(perPool[reg.AttributeBlock(b)], v)
	}
	if want := stats.Summarize(all); !eqSummary(rep.Overall, want) {
		t.Fatalf("overall diverged: %+v vs %+v", rep.Overall, want)
	}
	for pool, vals := range perPool {
		if pool == poolid.Unknown {
			continue
		}
		if got, ok := rep.PerPool[pool]; !ok || !eqSummary(got, stats.Summarize(vals)) {
			t.Fatalf("pool %q summary diverged (present=%v)", pool, ok)
		}
	}
	pools := rep.SortedPools()
	if len(pools) != len(rep.PerPool) {
		t.Fatalf("SortedPools lists %d of %d pools", len(pools), len(rep.PerPool))
	}
	for i := 1; i < len(pools); i++ {
		if pools[i-1] >= pools[i] {
			t.Fatalf("SortedPools out of order: %v", pools)
		}
	}
}

func TestSelfInterestGridMatchesSerialReference(t *testing.T) {
	ds := buildA(t)
	c, reg := ds.Result.Chain, ds.Registry
	aud := core.NewIndexedAuditor(index.Build(c, reg))
	opts := core.AuditOptions{MinShare: 0.04}

	all, err := aud.SelfInterestGrid(aud.Index().SelfInterestSets(), opts)
	if err != nil {
		t.Fatal(err)
	}

	// Serial reference: sorted owners × top pools, benign rows skipped.
	sets := core.SelfInterestSets(c, reg)
	owners := make([]string, 0, len(sets))
	for owner := range sets {
		owners = append(owners, owner)
	}
	sort.Strings(owners)
	var want []core.SelfInterestFinding
	for _, owner := range owners {
		if len(sets[owner]) == 0 {
			continue
		}
		for _, pool := range core.TopPoolsByShare(c, reg, 0.04) {
			res, err := core.DifferentialTestEstimated(c, reg, pool, sets[owner])
			if err != nil {
				if core.BenignTestError(err) {
					continue
				}
				t.Fatal(err)
			}
			want = append(want, core.SelfInterestFinding{Owner: owner, Result: res})
		}
	}
	if len(all) != len(want) {
		t.Fatalf("grid rows: %d vs serial %d", len(all), len(want))
	}
	for i := range want {
		if all[i].Owner != want[i].Owner || all[i].Result != want[i].Result {
			t.Fatalf("row %d diverged\ngrid:   %s %+v\nserial: %s %+v",
				i, all[i].Owner, all[i].Result, want[i].Owner, want[i].Result)
		}
		// BH-adjusted q never deflates the raw p.
		if all[i].QAccel < all[i].Result.AccelP {
			t.Fatalf("row %d: q %v < p %v", i, all[i].QAccel, all[i].Result.AccelP)
		}
	}

	// Determinism: a second run is identical.
	again, err := aud.SelfInterestGrid(aud.Index().SelfInterestSets(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(all) {
		t.Fatalf("rerun rows: %d vs %d", len(again), len(all))
	}
	for i := range all {
		if again[i] != all[i] {
			t.Fatalf("rerun row %d diverged", i)
		}
	}
}

func TestScamAuditDeterministicAndSerialEquivalent(t *testing.T) {
	ds := buildA(t)
	c, reg := ds.Result.Chain, ds.Registry
	ix := index.Build(c, reg)

	// Use one pool's self-interest set as a stand-in c-set.
	sets := ix.SelfInterestSets()
	var chosen string
	for owner, s := range sets {
		if len(s) > 0 && (chosen == "" || owner < chosen) {
			chosen = owner
		}
	}
	if chosen == "" {
		t.Fatal("no non-empty self-interest set")
	}
	aud := core.NewIndexedAuditor(ix)
	rows, err := aud.AuditScam(sets[chosen], core.AuditOptions{MinShare: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	var want []core.DifferentialResult
	for _, pool := range core.TopPoolsByShare(c, reg, 0.04) {
		res, err := core.DifferentialTestEstimated(c, reg, pool, sets[chosen])
		if err != nil {
			if core.BenignTestError(err) {
				continue
			}
			t.Fatal(err)
		}
		want = append(want, res)
	}
	if len(rows) != len(want) {
		t.Fatalf("rows: %d vs serial %d", len(rows), len(want))
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("row %d diverged\naudit:  %+v\nserial: %+v", i, rows[i], want[i])
		}
	}
}

func TestViolationSurveyDeterministic(t *testing.T) {
	ds := buildA(t)
	c := ds.Result.Chain
	obs := ds.Result.Observer("A")
	if obs == nil || len(obs.Fulls) == 0 {
		t.Skip("dataset A carries no full snapshots at this scale")
	}
	opts := core.ViolationOptions{Epsilon: 10 * time.Second, ExcludeDependent: true}
	a := core.ViolationSurvey(obs.Fulls, c, opts, 10, stats.NewRNG(99))
	b := core.ViolationSurvey(obs.Fulls, c, opts, 10, stats.NewRNG(99))
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("survey sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("snapshot %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}
