package experiments

import (
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/core"
	"chainaudit/internal/dataset"
	"chainaudit/internal/obs"
	"chainaudit/internal/report"
)

// Table1 reproduces the paper's Table 1: a summary of the three data sets.
func (s *Suite) Table1() *report.Table {
	defer obs.Timed("experiment.table1")()
	t := report.NewTable("Table 1: data sets",
		"dataset", "from", "to", "heights", "blocks", "tx_issued", "tx_confirmed", "cpfp_pct", "empty_blocks")
	for _, ds := range []*dataset.Dataset{s.A, s.B, s.C} {
		row := ds.Table1()
		t.AddRow(row.Name,
			row.From.Format(time.RFC3339), row.To.Format(time.RFC3339),
			int(row.FirstHeight), int(row.LastHeight),
			row.TxIssued, row.TxConfirmed, row.CPFPPct, row.EmptyBlocks)
	}
	return t
}

// Table2SelfInterest reproduces Table 2: differential prioritization of
// self-interest transactions. Every (owner, testing pool) combination among
// pools with ≥4% share is tested against the pools' payout transactions
// (ground-truth self-interest sets); rows significant at p < 0.001 in
// either tail are returned, which in a correctly planted data set are
// exactly the selfish and collusive pairs.
func (s *Suite) Table2SelfInterest() (*report.Table, []core.SelfInterestFinding, error) {
	defer obs.Timed("experiment.table2")()
	t := report.NewTable("Table 2: differential prioritization of self-interest transactions",
		"owner", "pool", "theta0", "x", "y", "p_accel", "q_accel", "p_decel", "sppe", "sppe_n")
	// Every (owner, tester) combination forms the multiple-testing family;
	// the grid fans the differential tests out over the shared C index.
	sets := make(map[string]map[chain.TxID]bool, len(s.C.Result.Truth.PayoutTxs))
	for owner, ids := range s.C.Result.Truth.PayoutTxs {
		sets[owner] = payoutSet(ids)
	}
	all, err := s.CAuditor().SelfInterestGrid(sets, core.AuditOptions{MinShare: 0.04})
	if err != nil {
		return nil, nil, err
	}
	// Report the rows significant in either tail.
	var findings []core.SelfInterestFinding
	for _, f := range all {
		res := f.Result
		if !res.SignificantAccel() && !res.SignificantDecel() {
			continue
		}
		findings = append(findings, f)
		t.AddRow(f.Owner, res.Pool, res.Theta0, int(res.X), int(res.Y),
			res.AccelP, f.QAccel, res.DecelP, res.SPPE, res.SPPECount)
	}
	return t, findings, nil
}

// Table3Scam reproduces Table 3: the differential test over scam-payment
// transactions in the scam window, per top pool. The paper (and a sound
// reproduction) finds no significant rows.
func (s *Suite) Table3Scam() (*report.Table, []core.DifferentialResult, error) {
	defer obs.Timed("experiment.table3")()
	win := s.C.ScamWindow()
	set := payoutSet(s.C.Result.Truth.ScamTxs)
	aud := core.Auditor{Chain: win, Registry: s.C.Registry}
	rows, err := aud.AuditScam(set, core.AuditOptions{MinShare: 0.05})
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable("Table 3: differential prioritization of scam-payment transactions",
		"pool", "theta0", "x", "y", "p_accel", "p_decel", "sppe")
	for _, r := range rows {
		t.AddRow(r.Pool, r.Theta0, int(r.X), int(r.Y), r.AccelP, r.DecelP, r.SPPE)
	}
	return t, rows, nil
}

// Table4DarkFee reproduces Table 4: the SPPE-threshold dark-fee detector
// validated against BTC.com's acceleration oracle, plus the random-sample
// baseline.
func (s *Suite) Table4DarkFee() (*report.Table, []core.DetectorRow) {
	defer obs.Timed("experiment.table4")()
	svc := s.C.Services["BTC.com"]
	rows := s.CAuditor().ValidateDarkFee("BTC.com",
		[]float64{100, 99, 90, 50, 1}, svc.IsAccelerated)
	t := report.NewTable("Table 4: detecting accelerated transactions by SPPE threshold (BTC.com)",
		"sppe_min", "candidates", "accelerated", "pct_accelerated")
	for _, r := range rows {
		t.AddRow(r.MinSPPE, r.Candidates, r.Accelerated, r.Precision()*100)
	}
	sampled, accel := s.CAuditor().DarkFeeBaseline("BTC.com", 13, svc.IsAccelerated)
	t.AddRow("random-sample baseline", sampled, accel, float64(accel)*100/float64(max(sampled, 1)))
	return t, rows
}

// Table5FeeRevenue reproduces Table 5: miners' relative revenue from fees
// per halving era.
func (s *Suite) Table5FeeRevenue() (*report.Table, []dataset.Table5Row, error) {
	defer obs.Timed("experiment.table5")()
	rows, err := dataset.BuildTable5(s.Seed+500, 3*time.Hour, 60_000)
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable("Table 5: fee share of miner revenue by era", report.SummaryColumns("era")...)
	for _, r := range rows {
		report.SummaryRow(t, r.Era, r.FeeShare)
	}
	return t, rows, nil
}

// NormIIICensus reports the §4.2.3 low-fee confirmation census over B and C
// (which pools ever confirmed sub-minimum transactions).
func (s *Suite) NormIIICensus() *report.Table {
	defer obs.Timed("experiment.norm3")()
	t := report.NewTable("Norm III: confirmed below-minimum fee-rate transactions",
		"dataset", "pool", "count", "zero_fee")
	for _, set := range []struct {
		ds  *dataset.Dataset
		aud *core.Auditor
	}{
		{s.B, &core.Auditor{Chain: s.B.Result.Chain, Registry: s.B.Registry}},
		{s.C, s.CAuditor()},
	} {
		ds := set.ds
		byPool := map[string]int{}
		zeroByPool := map[string]int{}
		for _, lf := range set.aud.AuditLowFee(core.AuditOptions{}) {
			byPool[lf.Pool]++
			if lf.ZeroFee {
				zeroByPool[lf.Pool]++
			}
		}
		for _, pool := range report.SortedKeys(byPool) {
			t.AddRow(ds.Name, pool, byPool[pool], zeroByPool[pool])
		}
	}
	return t
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
