package core_test

// Equivalence tests pinning the AuditOptions API to the grid and the
// chain-walking references underneath it: zero-valued options must
// reproduce the package defaults exactly, negative thresholds must mean "no
// threshold", and a cancelled context must abort cleanly.

import (
	"context"
	"reflect"
	"testing"
	"time"

	"chainaudit/internal/core"
	"chainaudit/internal/dataset"
)

func buildC(t testing.TB) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Cached(dataset.BuilderC, dataset.Options{Seed: 5, Duration: 8 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func auditorC(t testing.TB) *core.Auditor {
	ds := buildC(t)
	return &core.Auditor{Chain: ds.Result.Chain, Registry: ds.Registry}
}

func TestAuditPPEDefaultSemantics(t *testing.T) {
	aud := auditorC(t)
	// Zero-valued options resolve to the package defaults.
	want := aud.AuditPPE(core.AuditOptions{MinBlocks: core.DefaultMinBlocks})
	got := aud.AuditPPE(core.AuditOptions{})
	if !eqSummary(want.Overall, got.Overall) {
		t.Errorf("overall summary diverged: %+v vs %+v", want.Overall, got.Overall)
	}
	if len(want.PerPool) != len(got.PerPool) {
		t.Fatalf("per-pool count: %d vs %d", len(want.PerPool), len(got.PerPool))
	}
	for pool, w := range want.PerPool {
		if !eqSummary(w, got.PerPool[pool]) {
			t.Errorf("pool %s summary diverged", pool)
		}
	}
	// A negative MinBlocks means "no minimum": every pool gets a row.
	loose := aud.AuditPPE(core.AuditOptions{MinBlocks: -1})
	if len(loose.PerPool) < len(want.PerPool) {
		t.Errorf("no-minimum report has fewer pools (%d) than thresholded (%d)",
			len(loose.PerPool), len(want.PerPool))
	}
}

func TestAuditSelfInterestMatchesGrid(t *testing.T) {
	aud := auditorC(t)
	rep, err := aud.AuditSelfInterest(core.AuditOptions{MinShare: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth: the grid the audit is built on.
	wantAll, err := aud.SelfInterestGrid(aud.Index().SelfInterestSets(), core.AuditOptions{MinShare: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantAll, rep.All) {
		t.Errorf("grid diverged (grid fn %d rows, audit %d rows)", len(wantAll), len(rep.All))
	}
	if len(rep.All) == 0 {
		t.Fatal("degenerate dataset: empty self-interest grid")
	}
}

func TestAuditSelfInterestWindowedMatchesCLILoop(t *testing.T) {
	aud := auditorC(t)
	const windows = 3
	rep, err := aud.AuditSelfInterest(core.AuditOptions{MinShare: 0.04, Windows: windows})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows != windows {
		t.Errorf("Windows echoed as %d", rep.Windows)
	}
	// Reference: the loop cmd/chainaudit used to run inline.
	sets := aud.Index().SelfInterestSets()
	var want []core.WindowedFinding
	for _, fdg := range rep.Findings {
		res, err := core.WindowedDifferentialTest(aud.Chain, aud.Registry, fdg.Result.Pool, sets[fdg.Owner], windows)
		if err != nil {
			continue
		}
		want = append(want, core.WindowedFinding{Owner: fdg.Owner, Result: res})
	}
	if !reflect.DeepEqual(want, rep.Windowed) {
		t.Errorf("windowed findings diverged:\nwant %+v\ngot  %+v", want, rep.Windowed)
	}
}

func TestAuditScamDefaultSemantics(t *testing.T) {
	aud := auditorC(t)
	// Use the largest self-interest set as a stand-in transaction set.
	set := aud.Index().SelfInterestSets()
	var biggest string
	for owner, s := range set {
		if biggest == "" || len(s) > len(set[biggest]) {
			biggest = owner
		}
	}
	if biggest == "" {
		t.Fatal("no self-interest sets in dataset")
	}
	want, wantErr := aud.AuditScam(set[biggest], core.AuditOptions{MinShare: core.DefaultMinShare})
	got, gotErr := aud.AuditScam(set[biggest], core.AuditOptions{})
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("error mismatch: %v vs %v", wantErr, gotErr)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("scam rows diverged")
	}
}

func TestAuditDarkFeeAndLowFeeMatchFunctions(t *testing.T) {
	aud := auditorC(t)
	want := core.DetectAccelerated(aud.Chain, aud.Registry, "BTC.com", 90)
	got := aud.AuditDarkFee("BTC.com", core.AuditOptions{SPPE: 90})
	if !reflect.DeepEqual(want, got) {
		t.Errorf("dark-fee candidates diverged (%d vs %d)", len(want), len(got))
	}
	// SPPE zero-value selects the default threshold.
	if def := aud.AuditDarkFee("BTC.com", core.AuditOptions{}); !reflect.DeepEqual(def,
		core.DetectAccelerated(aud.Chain, aud.Registry, "BTC.com", core.DefaultSPPE)) {
		t.Error("default SPPE threshold diverged")
	}
	lows := core.LowFeeConfirmations(aud.Chain, aud.Registry)
	if got := aud.AuditLowFee(core.AuditOptions{}); !reflect.DeepEqual(lows, got) {
		t.Errorf("low-fee census diverged (%d vs %d)", len(lows), len(got))
	}
}

func TestAuditCancellation(t *testing.T) {
	aud := auditorC(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := aud.AuditSelfInterest(core.AuditOptions{Ctx: ctx}); err == nil {
		t.Error("cancelled self-interest audit returned nil error")
	}
	set := aud.Index().SelfInterestSets()
	for _, s := range set {
		if _, err := aud.AuditScam(s, core.AuditOptions{Ctx: ctx}); err == nil {
			t.Error("cancelled scam audit returned nil error")
		}
		break
	}
}
