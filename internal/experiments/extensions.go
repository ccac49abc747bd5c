package experiments

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/core"
	"chainaudit/internal/feeest"
	"chainaudit/internal/gbt"
	"chainaudit/internal/index"
	"chainaudit/internal/miner"
	"chainaudit/internal/norms"
	"chainaudit/internal/obs"
	"chainaudit/internal/poolid"
	"chainaudit/internal/report"
	"chainaudit/internal/sim"
	"chainaudit/internal/stats"
	"chainaudit/internal/wallet"
	"chainaudit/internal/workload"
)

// Extensions beyond the paper's published experiments, motivated by its
// discussion sections:
//
//   - ExtFeeEstimatorBias quantifies §4.1's warning that fee predictors
//     assuming norm adherence "will be misleading";
//   - ExtCensorshipPower demonstrates that the §5.1.2 deceleration test
//     detects a censoring miner (the paper tested for censorship and found
//     none; this verifies the test has power against a planted positive);
//   - ExtDelaySignificance replaces Figure 5's eyeballed CDF ordering with
//     Mann–Whitney U significance levels.

// ExtFeeEstimatorBias measures how dark-fee and selfish inclusions mislead
// a norm-assuming fee estimator on data set C: the recommendation computed
// from all included transactions versus the norm-clean view excluding
// SPPE ≥ 90 inclusions, across percentiles.
func (s *Suite) ExtFeeEstimatorBias() (*report.Table, error) {
	defer obs.Timed("experiment.ext.feeest_bias")()
	t := report.NewTable("Extension: fee-estimator bias from norm-violating inclusions (C)",
		"percentile", "naive_rec_sat_vb", "clean_rec_sat_vb", "underestimation_pct", "excluded_txs")
	for _, p := range []float64{10, 25, 50, 75} {
		bias, err := feeest.MeasureBias(s.C.Result.Chain, p, 90, feeest.DefaultDepth)
		if err != nil {
			return nil, err
		}
		t.AddRow(p, float64(bias.All), float64(bias.Clean), bias.Underestimation()*100, bias.Excluded)
	}
	// Operational consequence: next-block success of the naive estimator.
	if frac, err := feeest.EvaluateNextBlock(s.C.Result.Chain, 1, feeest.DefaultDepth); err == nil {
		t.AddRow("next-block success", frac*100, "", "", "")
	}
	return t, nil
}

// ExtCensorshipPower plants a censoring pool (20% hash rate refusing to
// mine transactions touching a blacklisted wallet) and runs the §5.1.2
// deceleration test against it and against an honest control pool. The
// censoring pool must be caught; the control must not.
func (s *Suite) ExtCensorshipPower() (*report.Table, error) {
	defer obs.Timed("experiment.ext.censorship")()
	blacklisted := wallet.DeriveAddress("sanctioned-entity")
	censor := miner.NewPool("CensorCo", "/CensorCo/", 0.20, 3).CensorAddresses(blacklisted)
	honest := miner.NewPool("HonestCo", "/HonestCo/", 0.20, 3)
	rest := miner.NewPool("RestPool", "/RestPool/", 0.60, 3)

	capacity := int64(60_000)
	rate := 0.95 * float64(capacity) / 600.0 / 300.0
	cfg := sim.Config{
		Seed:           s.Seed + 777,
		Duration:       30 * time.Hour,
		Pools:          []*miner.Pool{censor, honest, rest},
		BlockCapacity:  capacity,
		Arrivals:       workload.ConstantRate(rate),
		MaxArrivalRate: rate,
		Scam: &sim.ScamConfig{
			Wallet: blacklisted,
			Start:  time.Unix(1_577_836_800, 0),
			End:    time.Unix(1_577_836_800, 0).Add(30 * time.Hour),
			Count:  260,
		},
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	reg := poolid.NewRegistry([]poolid.Marker{
		{Substring: "/CensorCo/", Pool: "CensorCo"},
		{Substring: "/HonestCo/", Pool: "HonestCo"},
		{Substring: "/RestPool/", Pool: "RestPool"},
	})
	set := payoutSet(res.Truth.ScamTxs)
	aud := &core.Auditor{Chain: res.Chain, Registry: reg}
	t := report.NewTable("Extension: deceleration test power against a planted censor",
		"pool", "theta0", "x", "y", "p_decel", "p_accel", "verdict")
	for _, pool := range []string{"CensorCo", "HonestCo"} {
		r, err := aud.DifferentialTest(pool, set, core.AuditOptions{})
		if err != nil {
			return nil, fmt.Errorf("testing %s: %w", pool, err)
		}
		verdict := "clear"
		if r.SignificantDecel() {
			verdict = "CENSORING (p<0.001)"
		}
		t.AddRow(pool, r.Theta0, int(r.X), int(r.Y), r.DecelP, r.AccelP, verdict)
	}
	return t, nil
}

// ExtStreamEquivalence pins the streaming refactor's headline invariant as
// a first-class experiment: data set C replayed block by block through the
// incremental index (the POST /v1/ingest code path) and audited over its
// last n records must render byte-identical PPE, low-fee, and dark-fee
// sections to the batch auditor over index.Build(chain.Suffix(n)). Any divergence is an
// error, not a table row — this is a gate, like `make smoke-stream`, but
// over the library layers alone.
func (s *Suite) ExtStreamEquivalence() (*report.Table, error) {
	defer obs.Timed("experiment.ext.streameq")()
	c := s.C.Result.Chain
	reg := s.C.Registry
	inc := index.NewIncremental(reg)
	for _, b := range c.Blocks() {
		if _, err := inc.AppendBlock(b); err != nil {
			return nil, err
		}
	}
	pools := inc.TopPoolsByShare(core.DefaultMinShare)
	render := func(f func(io.Writer) error) (string, error) {
		var buf bytes.Buffer
		err := f(&buf)
		return buf.String(), err
	}
	t := report.NewTable("Extension: stream-replay audit equivalence (C)",
		"window", "blocks", "ppe", "lowfee", "darkfee_pools")
	for _, n := range []int{8, 32, 128, 0} {
		batch := core.NewIndexedAuditor(index.Build(c.Suffix(n), reg))
		win := core.NewIndexedAuditor(inc).Last(n)
		wantPPE, err := render(func(w io.Writer) error {
			return core.WritePPESection(w, batch.AuditPPE(core.AuditOptions{}))
		})
		if err != nil {
			return nil, err
		}
		gotPPE, err := render(func(w io.Writer) error {
			return core.WritePPESection(w, win.AuditPPE(core.AuditOptions{}))
		})
		if err != nil {
			return nil, err
		}
		if gotPPE != wantPPE {
			return nil, fmt.Errorf("streameq: PPE diverged at window %d", n)
		}
		wantLow, err := render(func(w io.Writer) error {
			return core.WriteLowFeeSection(w, batch.AuditLowFee(core.AuditOptions{}))
		})
		if err != nil {
			return nil, err
		}
		gotLow, err := render(func(w io.Writer) error {
			return core.WriteLowFeeSection(w, win.AuditLowFee(core.AuditOptions{}))
		})
		if err != nil {
			return nil, err
		}
		if gotLow != wantLow {
			return nil, fmt.Errorf("streameq: low-fee diverged at window %d", n)
		}
		for _, pool := range pools {
			wantDark, err := render(func(w io.Writer) error {
				return core.WriteDarkFeeSection(w, pool, core.DefaultSPPE, batch.AuditDarkFee(pool, core.AuditOptions{}))
			})
			if err != nil {
				return nil, err
			}
			gotDark, err := render(func(w io.Writer) error {
				return core.WriteDarkFeeSection(w, pool, core.DefaultSPPE, win.AuditDarkFee(pool, core.AuditOptions{}))
			})
			if err != nil {
				return nil, err
			}
			if gotDark != wantDark {
				return nil, fmt.Errorf("streameq: dark-fee diverged at window %d pool %s", n, pool)
			}
		}
		label := fmt.Sprintf("last %d", n)
		if n == 0 {
			label = "all"
		}
		t.AddRow(label, batch.Chain.Len(), "identical", "identical", len(pools))
	}
	return t, nil
}

// ExtNormComparison addresses the paper's §6.1 questions ("should waiting
// time be considered? should value be a factor?") empirically: the same
// workload is mined under three prioritization norms, and each resulting
// chain is characterized by delay tails, low-fee starvation, and fee
// revenue — the axes the chain-neutrality debate trades off.
func (s *Suite) ExtNormComparison() (*report.Table, error) {
	defer obs.Timed("experiment.ext.norm_comparison")()
	t := report.NewTable("Extension: ordering norms compared on one workload",
		"norm", "delay_p50", "delay_p99", "lowfee_delay_p50", "starved", "fee_per_block_sat", "confirmed", "observed")
	capacity := int64(60_000)
	rate := 1.05 * float64(capacity) / 600.0 / 300.0
	policies := []gbtPolicy{
		{"feerate", gbt.FeeRate{}},
		{"feerate+aging", norms.FeeRateWithAging{AgingRate: 2}},
		{"value-density", norms.ValueDensity{}},
	}
	for _, pol := range policies {
		pools := []*miner.Pool{
			miner.NewPool("N1", "/N1/", 0.55, 2),
			miner.NewPool("N2", "/N2/", 0.45, 2),
		}
		for _, p := range pools {
			p.Policy = pol.policy
		}
		res, err := sim.Run(sim.Config{
			Seed:           s.Seed + 900, // identical workload across norms
			Duration:       20 * time.Hour,
			Pools:          pools,
			BlockCapacity:  capacity,
			Arrivals:       workload.ConstantRate(rate),
			MaxArrivalRate: rate,
			Observers: []sim.ObserverConfig{{
				Name:        "obs",
				MinFeeRate:  0,
				MedianDelay: 400 * time.Millisecond,
			}},
		})
		if err != nil {
			return nil, fmt.Errorf("norm %s: %w", pol.name, err)
		}
		obs := res.Observer("obs")
		seen := make(map[chain.TxID]int64, len(obs.Seen))
		for id, info := range obs.Seen {
			seen[id] = info.TipHeight
		}
		ch := norms.Characterize(pol.name, res.Chain, seen)
		t.AddRow(ch.Norm, ch.DelayP50, ch.DelayP99, ch.LowFeeDelayP50,
			ch.Starved, ch.FeePerBlock, ch.Confirmed, ch.Observed)
	}
	return t, nil
}

// gbtPolicy pairs a label with a template policy.
type gbtPolicy struct {
	name   string
	policy gbt.Policy
}

// ExtConflictOutcomes tallies how the paper-intro's conflicting-transaction
// races resolve in data set C: every replace-by-fee pair ends with exactly
// one side confirmed (the chain's double-spend guard enforces it), and the
// fee-bumped replacement wins the overwhelming majority.
func (s *Suite) ExtConflictOutcomes() (*report.Table, error) {
	defer obs.Timed("experiment.ext.conflicts")()
	t := report.NewTable("Extension: conflicting-transaction (RBF) outcomes (C)",
		"outcome", "count")
	oldWins, newWins, pending := 0, 0, 0
	for _, r := range s.C.Result.Truth.Replacements {
		oldC := s.C.Result.Chain.Contains(r.Old)
		newC := s.C.Result.Chain.Contains(r.New)
		switch {
		case oldC && newC:
			return nil, fmt.Errorf("double spend confirmed: %s and %s", r.Old.Short(), r.New.Short())
		case newC:
			newWins++
		case oldC:
			oldWins++
		default:
			pending++
		}
	}
	t.AddRow("replacement confirmed", newWins)
	t.AddRow("original confirmed", oldWins)
	t.AddRow("both still pending", pending)
	t.AddRow("both confirmed (must be 0)", 0)
	return t, nil
}

// ExtDelaySignificance backs Figure 5's visual ordering with Mann–Whitney
// U tests: for consecutive fee bands in A and B, the lower band's delays
// must be stochastically greater at overwhelming significance.
func (s *Suite) ExtDelaySignificance() (*report.Table, error) {
	defer obs.Timed("experiment.ext.delay_significance")()
	t := report.NewTable("Extension: Mann-Whitney significance of Figure 5/12 orderings",
		"dataset", "comparison", "p_greater", "common_language", "n_low", "n_high")
	for _, ds := range []struct {
		name string
		d    interface{}
	}{{"A", nil}, {"B", nil}} {
		var byBand map[core.FeeBand][]float64
		if ds.name == "A" {
			byBand = core.DelaysByFeeBand(s.A.Result.Chain, seenRecords(s.A.Result.Observer("A")))
		} else {
			byBand = core.DelaysByFeeBand(s.B.Result.Chain, seenRecords(s.B.Result.Observer("B")))
		}
		pairs := []struct {
			label  string
			lo, hi core.FeeBand
		}{
			{"low vs high", core.FeeLow, core.FeeHigh},
			{"high vs exorbitant", core.FeeHigh, core.FeeExorbitant},
		}
		for _, p := range pairs {
			lo, hi := byBand[p.lo], byBand[p.hi]
			if len(lo) == 0 || len(hi) == 0 {
				continue
			}
			// H1: delays in the lower band are stochastically greater.
			res, err := stats.MannWhitneyU(lo, hi)
			if err != nil {
				return nil, err
			}
			t.AddRow(ds.name, p.label, res.PGreater, res.CommonLanguage, len(lo), len(hi))
		}
	}
	return t, nil
}
