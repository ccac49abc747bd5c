package dataset

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/core"
	"chainaudit/internal/mempool"
	"chainaudit/internal/poolid"
)

// Small-scale builds shared across the package's tests (building once per
// test would dominate runtime). Built lazily so tests that don't need a
// set — and race runs, which skip the heavy set C — don't pay for it.
var (
	onceA, onceB, onceC sync.Once
	memoA, memoB, memoC *Dataset
	errA, errB, errC    error
)

func getA(t *testing.T) *Dataset {
	t.Helper()
	onceA.Do(func() { memoA, errA = BuildA(Options{Seed: 1, Duration: 6 * time.Hour}) })
	if errA != nil {
		t.Fatal(errA)
	}
	return memoA
}

func getB(t *testing.T) *Dataset {
	t.Helper()
	onceB.Do(func() { memoB, errB = BuildB(Options{Seed: 2, Duration: 6 * time.Hour}) })
	if errB != nil {
		t.Fatal(errB)
	}
	return memoB
}

func getC(t *testing.T) *Dataset {
	t.Helper()
	if raceEnabled {
		// The 24h set-C simulation alone runs ~10x slower under the race
		// detector and risks the package's 10-minute budget. Builder and
		// cache concurrency stay covered by the A/B builds and cache tests.
		t.Skip("24h set-C build too heavy under -race")
	}
	onceC.Do(func() { memoC, errC = BuildC(Options{Seed: 3, Duration: 24 * time.Hour}) })
	if errC != nil {
		t.Fatal(errC)
	}
	return memoC
}

func TestBuildABasics(t *testing.T) {
	dsA := getA(t)
	if dsA.Name != "A" {
		t.Error("name")
	}
	obs := dsA.Result.Observer("A")
	if obs == nil {
		t.Fatal("observer A missing")
	}
	// The default-config observer drops sub-minimum transactions.
	if obs.DroppedBelowMin == 0 {
		t.Error("observer A dropped nothing")
	}
	if len(obs.Fulls) == 0 {
		t.Error("no full snapshots")
	}
	if dsA.Result.Chain.Len() < 20 {
		t.Errorf("blocks = %d", dsA.Result.Chain.Len())
	}
}

func TestBuildBPermissive(t *testing.T) {
	obs := getB(t).Result.Observer("B")
	if obs == nil {
		t.Fatal("observer B missing")
	}
	if obs.DroppedBelowMin != 0 {
		t.Error("permissive observer dropped txs")
	}
	// B sees congestion most of the time.
	congested := 0
	for _, s := range obs.Summaries {
		if mempool.CongestionAt(s.TotalVSize, s.Capacity) > mempool.CongestionNone {
			congested++
		}
	}
	frac := float64(congested) / float64(len(obs.Summaries))
	if frac < 0.4 {
		t.Errorf("B congested fraction = %v; want majority", frac)
	}
}

func TestBuildCPlantedBehaviours(t *testing.T) {
	dsC := getC(t)
	c := dsC.Result.Chain
	if c.Len() < 100 {
		t.Fatalf("blocks = %d", c.Len())
	}
	// Scam episode planted and mostly confirmed.
	if len(dsC.Result.Truth.ScamTxs) < 40 {
		t.Errorf("scam txs = %d", len(dsC.Result.Truth.ScamTxs))
	}
	// Acceleration services recorded purchases.
	total := 0
	for _, recs := range dsC.Result.Truth.Accelerated {
		total += len(recs)
	}
	if total == 0 {
		t.Error("no dark-fee purchases")
	}
	// Payouts exist for the top-10 pools.
	if len(dsC.Result.Truth.PayoutTxs) != 10 {
		t.Errorf("payout pools = %d", len(dsC.Result.Truth.PayoutTxs))
	}
	// Pool attribution succeeds for every block (all pools have markers).
	reg := dsC.Registry
	shares := poolid.EstimateShares(c, reg)
	topShare := 0.0
	for _, s := range shares {
		if s.Pool == "F2Pool" {
			topShare = s.HashRate
		}
	}
	if topShare < 0.10 || topShare > 0.26 {
		t.Errorf("F2Pool share = %v, want ~0.175", topShare)
	}
}

func TestBuildCSelfInterestDetectable(t *testing.T) {
	// The flagship result: the planted selfish pools must be caught by the
	// audit, and honest pools must not.
	dsC := getC(t)
	c := dsC.Result.Chain
	reg := dsC.Registry
	payouts := dsC.Result.Truth.PayoutTxs
	aud := &core.Auditor{Chain: c, Registry: reg}

	selfish := map[string]bool{"F2Pool": true, "ViaBTC": true, "1THash&58Coin": true, "SlushPool": true}
	for pool, ids := range payouts {
		set := make(map[chain.TxID]bool, len(ids))
		for _, id := range ids {
			set[id] = true
		}
		res, err := aud.DifferentialTest(pool, set, core.AuditOptions{})
		if err != nil {
			t.Fatalf("%s: %v", pool, err)
		}
		if selfish[pool] {
			// SlushPool's 3.75% hash rate gives it too few blocks at this
			// test scale for the strict p < 0.001 bar (the paper's chain is
			// 350x longer); hold it to the paper's test size α = 0.01
			// instead. The larger planted pools must clear the strict bar.
			threshold := 0.001
			if pool == "SlushPool" {
				threshold = 0.01
			}
			if res.AccelP >= threshold {
				t.Errorf("%s: planted selfish pool not detected (x=%d y=%d p=%v)", pool, res.X, res.Y, res.AccelP)
			}
			if res.SPPE < 20 {
				t.Errorf("%s: SPPE = %v, want strongly positive", pool, res.SPPE)
			}
		} else if pool != "Poolin" && pool != "BTC.com" {
			// Honest pools (not dark-fee sellers, which can catch their own
			// payouts incidentally): no acceleration.
			if res.SignificantAccel() && res.SPPE > 50 {
				t.Errorf("%s: honest pool flagged (p=%v SPPE=%v)", pool, res.AccelP, res.SPPE)
			}
		}
	}

	// Collusion: ViaBTC accelerates SlushPool's and 1THash&58Coin's txs.
	for _, owner := range []string{"SlushPool", "1THash&58Coin"} {
		set := make(map[chain.TxID]bool)
		for _, id := range payouts[owner] {
			set[id] = true
		}
		res, err := aud.DifferentialTest("ViaBTC", set, core.AuditOptions{})
		if err != nil {
			t.Fatalf("ViaBTC x %s: %v", owner, err)
		}
		if !res.SignificantAccel() {
			t.Errorf("collusion ViaBTC->%s not detected (x=%d y=%d p=%v)", owner, res.X, res.Y, res.AccelP)
		}
	}
}

func TestScamWindowNeutral(t *testing.T) {
	dsC := getC(t)
	win := dsC.ScamWindow()
	if win.Len() == 0 {
		t.Fatal("empty scam window")
	}
	set := make(map[chain.TxID]bool)
	for _, id := range dsC.Result.Truth.ScamTxs {
		set[id] = true
	}
	aud := &core.Auditor{Chain: win, Registry: dsC.Registry}
	rows, err := aud.AuditScam(set, core.AuditOptions{MinShare: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("tested pools = %d", len(rows))
	}
	for _, r := range rows {
		if r.SignificantAccel() || r.SignificantDecel() {
			t.Errorf("%s flagged on neutral scam set (accel=%v decel=%v x=%d y=%d)",
				r.Pool, r.AccelP, r.DecelP, r.X, r.Y)
		}
	}
}

func TestTable1(t *testing.T) {
	dsC := getC(t)
	row := dsC.Table1()
	if row.Name != "C" || row.Blocks != dsC.Result.Chain.Len() {
		t.Errorf("row = %+v", row)
	}
	if row.CPFPPct < 5 || row.CPFPPct > 45 {
		t.Errorf("CPFP%% = %v, want double digits (paper: 19-26%%)", row.CPFPPct)
	}
	if row.TxConfirmed == 0 || row.TxIssued < row.TxConfirmed {
		t.Errorf("tx counts: issued=%d confirmed=%d", row.TxIssued, row.TxConfirmed)
	}
	if !row.To.After(row.From) || row.LastHeight <= row.FirstHeight {
		t.Error("span wrong")
	}
}

func TestTable5(t *testing.T) {
	rows, err := BuildTable5(11, 2*time.Hour, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byEra := map[string]Table5Row{}
	for _, r := range rows {
		if r.Blocks == 0 || r.FeeShare.N == 0 {
			t.Fatalf("era %s empty", r.Era)
		}
		byEra[r.Era] = r
	}
	// Shape: 2017 fee spike dominates its neighbours; 2020 above 2019
	// (halving halved the subsidy while fees recovered).
	if byEra["2017"].FeeShare.Mean <= byEra["2016"].FeeShare.Mean {
		t.Errorf("2017 (%v) not above 2016 (%v)", byEra["2017"].FeeShare.Mean, byEra["2016"].FeeShare.Mean)
	}
	if byEra["2017"].FeeShare.Mean <= byEra["2018"].FeeShare.Mean {
		t.Errorf("2017 (%v) not above 2018 (%v)", byEra["2017"].FeeShare.Mean, byEra["2018"].FeeShare.Mean)
	}
	if byEra["2020"].FeeShare.Mean <= byEra["2019"].FeeShare.Mean {
		t.Errorf("2020 (%v) not above 2019 (%v)", byEra["2020"].FeeShare.Mean, byEra["2019"].FeeShare.Mean)
	}
	// Subsidies follow the halving schedule.
	if byEra["2016"].Subsidy != 25e8 || byEra["2020"].Subsidy != 6.25e8 {
		t.Error("era subsidies wrong")
	}
}

func TestChainCSVRoundTrip(t *testing.T) {
	dsA := getA(t)
	c := dsA.Result.Chain
	var buf bytes.Buffer
	if err := WriteChainCSV(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := ReadChainCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != c.Len() {
		t.Fatalf("blocks: %d vs %d", back.Len(), c.Len())
	}
	if back.TxCount() != c.TxCount() {
		t.Fatalf("txs: %d vs %d", back.TxCount(), c.TxCount())
	}
	// Positions, fees, and attribution survive: PPE series must be
	// identical (it depends on order, fee, vsize, and CPFP links of first
	// inputs).
	orig := core.NewAuditor(c).PPESeries()
	rt := core.NewAuditor(back).PPESeries()
	if len(orig) != len(rt) {
		t.Fatalf("PPE series length: %d vs %d", len(orig), len(rt))
	}
	for i := range orig {
		if diff := orig[i] - rt[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("PPE diverged at %d: %v vs %v", i, orig[i], rt[i])
		}
	}
	// Coinbase tags survive for attribution.
	shares1 := poolid.EstimateShares(c, dsA.Registry)
	shares2 := poolid.EstimateShares(back, dsA.Registry)
	if len(shares1) != len(shares2) {
		t.Error("attribution diverged")
	}
}

func TestReadChainCSVErrors(t *testing.T) {
	if _, err := ReadChainCSV(bytes.NewReader([]byte("bad,header\n"))); err == nil {
		t.Error("bad header accepted")
	}
	if _, err := ReadChainCSV(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}
