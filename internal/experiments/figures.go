package experiments

import (
	"fmt"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/core"
	"chainaudit/internal/dataset"
	"chainaudit/internal/gbt"
	"chainaudit/internal/mempool"
	"chainaudit/internal/miner"
	"chainaudit/internal/obs"
	"chainaudit/internal/poolid"
	"chainaudit/internal/report"
	"chainaudit/internal/sim"
	"chainaudit/internal/stats"
	"chainaudit/internal/workload"
)

// cdfPoints is the resolution figure series are emitted at.
const cdfPoints = 64

// Fig01NormShift reproduces Figure 1: the CDF of the fee-rate-norm position
// prediction error for blocks mined before April 2016 (legacy coin-age
// priority ordering) and after (fee-rate ordering). The pre-2016 era is
// simulated with the Priority template policy, the post era with the
// fee-rate policy; both eras are audited against the fee-rate norm.
func (s *Suite) Fig01NormShift() (*report.Figure, error) {
	defer obs.Timed("experiment.fig1")()
	mkEra := func(label string, policy gbt.Policy, startHeight int64, seed uint64) ([]float64, error) {
		pools := []*miner.Pool{
			miner.NewPool("EraPool1", "/E1/", 0.5, 2),
			miner.NewPool("EraPool2", "/E2/", 0.5, 2),
		}
		for _, p := range pools {
			p.Policy = policy
		}
		capacity := int64(60_000)
		rate := 0.9 * float64(capacity) / 600.0 / 300.0
		res, err := sim.Run(sim.Config{
			Seed:           seed,
			Duration:       10 * time.Hour,
			Pools:          pools,
			BlockCapacity:  capacity,
			StartHeight:    startHeight,
			Arrivals:       workload.ConstantRate(rate),
			MaxArrivalRate: rate,
		})
		if err != nil {
			return nil, fmt.Errorf("era %s: %w", label, err)
		}
		return core.NewAuditor(res.Chain).PPESeries(), nil
	}
	pre, err := mkEra("pre-2016", gbt.Priority{}, 400_000, s.Seed+101)
	if err != nil {
		return nil, err
	}
	post, err := mkEra("post-2016", gbt.FeeRate{}, 630_000, s.Seed+102)
	if err != nil {
		return nil, err
	}
	f := report.NewFigure("Figure 1: fee-rate-norm prediction error, before vs after April 2016", "PPE (%)")
	f.Add("before Apr 2016 (priority ordering)", pre, cdfPoints)
	f.Add("after Apr 2016 (fee-rate ordering)", post, cdfPoints)
	return f, nil
}

// Fig02PoolShares reproduces Figure 2: blocks mined and transactions
// confirmed by the top-20 MPOs in each data set.
func (s *Suite) Fig02PoolShares() *report.Table {
	defer obs.Timed("experiment.fig2")()
	t := report.NewTable("Figure 2: blocks and transactions by top-20 MPOs",
		"dataset", "pool", "blocks", "txs", "hashrate")
	for _, ds := range []*dataset.Dataset{s.A, s.B, s.C} {
		shares := poolid.EstimateShares(ds.Result.Chain, ds.Registry)
		for _, sh := range poolid.TopShares(shares, 20) {
			t.AddRow(ds.Name, sh.Pool, sh.Blocks, sh.Txs, sh.HashRate)
		}
	}
	return t
}

// Fig03Congestion reproduces Figure 3: (a) cumulative transactions and
// blocks over time, (b) mempool-size distributions for A and B, (c) the
// mempool-size time series of A.
func (s *Suite) Fig03Congestion() (*report.Figure, *report.Figure, *report.Table) {
	defer obs.Timed("experiment.fig3")()
	// (a) cumulative counts over time from data set C.
	cum := report.NewTable("Figure 3a: cumulative blocks and transactions (C)",
		"time", "blocks", "txs")
	var txs int64
	cChain := s.C.Result.Chain
	step := cChain.Len() / 24
	if step == 0 {
		step = 1
	}
	for i, b := range cChain.Blocks() {
		txs += int64(len(b.Body()))
		if i%step == 0 || i == cChain.Len()-1 {
			cum.AddRow(b.Time.Format(time.RFC3339), i+1, txs)
		}
	}
	// (b) mempool size CDFs.
	sizes := func(obs *sim.ObserverData) []float64 {
		out := make([]float64, 0, len(obs.Summaries))
		for _, snap := range obs.Summaries {
			out = append(out, float64(snap.TotalVSize)/1e6)
		}
		return out
	}
	fb := report.NewFigure("Figure 3b: mempool size distributions", "mempool size (MB-equivalent)")
	fb.Add("A", sizes(s.A.Result.Observer("A")), cdfPoints)
	fb.Add("B", sizes(s.B.Result.Observer("B")), cdfPoints)
	// (c) mempool size vs time for A (downsampled, split at snapshot gaps).
	fc := report.NewFigure("Figure 3c: mempool size over time (A)", "hours since start")
	obsA := s.A.Result.Observer("A")
	fc.Series = append(fc.Series, snapshotSeries("mempool MB (time series; F column = MB)", obsA.Summaries)...)
	annotateGaps(fc, obsA)
	return fb, fc, cum
}

// Fig04DelaysFees reproduces Figure 4: (a) commit-delay CDFs, (b) fee-rate
// CDFs, (c) fee-rates per congestion level in A.
func (s *Suite) Fig04DelaysFees() (*report.Figure, *report.Figure, *report.Figure) {
	defer obs.Timed("experiment.fig4")()
	fa := report.NewFigure("Figure 4a: commit delay distributions", "delay (blocks)")
	fb := report.NewFigure("Figure 4b: fee-rate distributions", "fee-rate (BTC/KB)")
	for _, ds := range []*dataset.Dataset{s.A, s.B} {
		obs := ds.Result.Observer(ds.Name)
		seen := seenRecords(obs)
		fa.Add(ds.Name, core.CommitDelays(ds.Result.Chain, seen), cdfPoints)
		fb.Add(ds.Name, core.ConfirmedFeeRates(ds.Result.Chain), cdfPoints)
	}
	s.annotateSeenCoverage(fa, s.A)
	s.annotateSeenCoverage(fa, s.B)
	fc := report.NewFigure("Figure 4c: fee-rates by congestion level (A)", "fee-rate (BTC/KB)")
	byLevel := core.FeeRatesByCongestion(seenRecords(s.A.Result.Observer("A")))
	for level := mempool.CongestionNone; level <= mempool.CongestionHigh; level++ {
		if vals := byLevel[level]; len(vals) > 0 {
			fc.Add(level.String(), vals, cdfPoints)
		}
	}
	s.annotateSeenCoverage(fc, s.A)
	return fa, fb, fc
}

// Fig05FeeDelay reproduces Figure 5: commit-delay CDFs per fee band in A.
func (s *Suite) Fig05FeeDelay() *report.Figure {
	defer obs.Timed("experiment.fig5")()
	return s.feeDelayFigure("Figure 5: commit delays by fee-rate band (A)", s.A)
}

// Fig12FeeDelayB is Figure 12: the data set B counterpart of Figure 5.
func (s *Suite) Fig12FeeDelayB() *report.Figure {
	defer obs.Timed("experiment.fig12")()
	return s.feeDelayFigure("Figure 12: commit delays by fee-rate band (B)", s.B)
}

func (s *Suite) feeDelayFigure(title string, ds *dataset.Dataset) *report.Figure {
	f := report.NewFigure(title, "delay (blocks)")
	byBand := core.DelaysByFeeBand(ds.Result.Chain, seenRecords(ds.Result.Observer(ds.Name)))
	for band := core.FeeLow; band <= core.FeeExorbitant; band++ {
		if vals := byBand[band]; len(vals) > 0 {
			f.Add(band.String(), vals, cdfPoints)
		}
	}
	s.annotateSeenCoverage(f, ds)
	return f
}

// Fig06ViolationPairs reproduces Figure 6: the CDF over sampled snapshots
// of the fraction of transaction pairs violating the fee-rate selection
// norm, for ε ∈ {0, 10 s, 10 min}, with and without dependent (CPFP) pairs.
func (s *Suite) Fig06ViolationPairs(sampleN int) (*report.Figure, *report.Figure) {
	defer obs.Timed("experiment.fig6")()
	obs := s.A.Result.Observer("A")
	c := s.A.Result.Chain
	epsilons := []struct {
		label string
		eps   time.Duration
	}{
		{"eps=0", 0},
		{"eps=10s", 10 * time.Second},
		{"eps=10min", 10 * time.Minute},
	}
	all := report.NewFigure("Figure 6a: violating pair fraction, all transactions (A)", "fraction of pairs")
	non := report.NewFigure("Figure 6b: violating pair fraction, non-CPFP transactions (A)", "fraction of pairs")
	var covAll, covNon core.Coverage
	tally := func(cov *core.Coverage, survey []core.ViolationStats) {
		for _, v := range survey {
			cov.Add(core.Coverage{Used: v.Confirmed, Excluded: v.UnseenExcluded})
		}
	}
	for _, e := range epsilons {
		surveyAll := core.ViolationSurvey(obs.Fulls, c,
			core.ViolationOptions{Epsilon: e.eps}, sampleN, s.rng.Fork(uint64(e.eps)))
		tally(&covAll, surveyAll)
		all.Add(e.label, core.ViolationFractions(surveyAll), cdfPoints)
		surveyNon := core.ViolationSurvey(obs.Fulls, c,
			core.ViolationOptions{Epsilon: e.eps, ExcludeDependent: true}, sampleN, s.rng.Fork(uint64(e.eps)+1))
		tally(&covNon, surveyNon)
		non.Add(e.label, core.ViolationFractions(surveyNon), cdfPoints)
	}
	if s.degraded() {
		all.AddNote("pair analysis %s of confirmed snapshot txs; unknown first-seen excluded", covAll)
		non.AddNote("pair analysis %s of confirmed snapshot txs; unknown first-seen excluded", covNon)
	}
	return all, non
}

// Fig07PPE reproduces Figure 7: the PPE distribution over all blocks of C
// and per top-6 pool. Per-block PPE and attribution come precomputed from
// the shared C index; this just aggregates.
func (s *Suite) Fig07PPE() (*report.Figure, stats.Summary) {
	defer obs.Timed("experiment.fig7")()
	ix := s.CIndex()
	aud := s.CAuditor()
	rep := aud.AuditPPE(core.AuditOptions{MinBlocks: 1})
	f := report.NewFigure("Figure 7: position prediction error (C)", "PPE (%)")
	f.Add("overall", aud.PPESeries(), cdfPoints)
	for _, pool := range s.top6C() {
		var vals []float64
		for _, bi := range ix.PoolRecords(pool) {
			if rec := ix.Record(bi); rec.PPEValid {
				vals = append(vals, rec.PPE)
			}
		}
		f.Add(pool, vals, cdfPoints)
	}
	return f, rep.Overall
}

// Fig08PoolWallets reproduces Figure 8: (a) distinct reward addresses per
// pool and (b) inferred self-interest transaction counts.
func (s *Suite) Fig08PoolWallets() *report.Table {
	defer obs.Timed("experiment.fig8")()
	t := report.NewTable("Figure 8: pool wallets and self-interest transactions (C)",
		"pool", "reward_addresses", "self_interest_txs")
	addrs := s.CIndex().RewardAddresses()
	sets := s.CIndex().SelfInterestSets()
	for _, pool := range report.SortedKeys(addrs) {
		if pool == poolid.Unknown {
			continue
		}
		t.AddRow(pool, len(addrs[pool]), len(sets[pool]))
	}
	return t
}

// Fig09MempoolB reproduces Figure 9: data set B's mempool size over time.
func (s *Suite) Fig09MempoolB() *report.Figure {
	defer obs.Timed("experiment.fig9")()
	f := report.NewFigure("Figure 9: mempool size over time (B)", "hours since start")
	obs := s.B.Result.Observer("B")
	f.Series = append(f.Series, snapshotSeries("mempool MB (time series; F column = MB)", obs.Summaries)...)
	annotateGaps(f, obs)
	return f
}

// Fig10FeeratesByPool reproduces Figure 10: fee-rate CDFs of transactions
// committed by the top-5 pools in A.
func (s *Suite) Fig10FeeratesByPool() *report.Figure {
	defer obs.Timed("experiment.fig10")()
	f := report.NewFigure("Figure 10: fee-rates by top-5 MPO (A)", "fee-rate (BTC/KB)")
	byPool := core.ConfirmedFeeRatesByPool(s.A.Result.Chain, s.A.Registry)
	for i, sh := range poolid.TopShares(s.AIndex().Shares(), 5) {
		if vals := byPool[sh.Pool]; len(vals) > 0 {
			f.Add(fmt.Sprintf("%d.%s", i+1, sh.Pool), vals, cdfPoints)
		}
	}
	return f
}

// Fig11CongestionFeesB reproduces Figure 11: fee-rates per congestion level
// in data set B.
func (s *Suite) Fig11CongestionFeesB() *report.Figure {
	defer obs.Timed("experiment.fig11")()
	f := report.NewFigure("Figure 11: fee-rates by congestion level (B)", "fee-rate (BTC/KB)")
	byLevel := core.FeeRatesByCongestion(seenRecords(s.B.Result.Observer("B")))
	for level := mempool.CongestionNone; level <= mempool.CongestionHigh; level++ {
		if vals := byLevel[level]; len(vals) > 0 {
			f.Add(level.String(), vals, cdfPoints)
		}
	}
	return f
}

// Fig13ScamWindowShares reproduces Figure 13: blocks and transactions per
// MPO during the scam window.
func (s *Suite) Fig13ScamWindowShares() *report.Table {
	defer obs.Timed("experiment.fig13")()
	t := report.NewTable("Figure 13: MPO shares during the scam window (C)",
		"pool", "blocks", "txs", "hashrate")
	win := s.C.ScamWindow()
	shares := poolid.EstimateShares(win, s.C.Registry)
	for _, sh := range poolid.TopShares(shares, 20) {
		t.AddRow(sh.Pool, sh.Blocks, sh.Txs, sh.HashRate)
	}
	return t
}

// Fig14AccelFees reproduces Figure 14 / Appendix G: the distribution of
// quoted acceleration fees relative to public fees for a mempool snapshot.
func (s *Suite) Fig14AccelFees() (*report.Figure, stats.Summary) {
	defer obs.Timed("experiment.fig14")()
	svc := s.C.Services["BTC.com"]
	obs := pickSnapshot(s.A)
	f := report.NewFigure("Figure 14: public fee vs quoted acceleration fee", "fee (BTC)")
	var public, quoted, ratio []float64
	var top float64
	for _, st := range obs.Txs {
		if r := float64(st.Tx.FeeRate()); r > top {
			top = r
		}
	}
	for _, st := range obs.Txs {
		q := svc.Quote(st.Tx, chain.SatPerVByte(top))
		public = append(public, float64(st.Tx.Fee)/1e8)
		quoted = append(quoted, float64(q)/1e8)
		if st.Tx.Fee > 0 {
			ratio = append(ratio, float64(q)/float64(st.Tx.Fee))
		}
	}
	f.Add("public transaction fee", public, cdfPoints)
	f.Add("quoted acceleration fee", quoted, cdfPoints)
	return f, stats.Summarize(ratio)
}

// pickSnapshot returns the fullest captured snapshot of the data set's
// observer.
func pickSnapshot(ds *dataset.Dataset) mempool.Snapshot {
	obs := ds.Result.Observer(ds.Name)
	var best mempool.Snapshot
	for _, snap := range obs.Fulls {
		if snap.Count > best.Count {
			best = snap
		}
	}
	return best
}

// snapshotSeries renders a snapshot stream as a downsampled time series,
// split at every snapshot gap: each contiguous segment becomes its own
// series so blackout holes stay holes instead of being bridged by a line.
// A gap-free stream yields the single series the pre-gap-aware code emitted
// (same stride, same points); an empty stream yields none, instead of
// panicking on a first snapshot that does not exist.
func snapshotSeries(name string, snaps []mempool.Snapshot) []report.Series {
	segs := mempool.SplitAtGaps(snaps, mempool.SnapshotInterval)
	if len(segs) == 0 {
		return nil
	}
	stride := len(snaps) / 200
	if stride == 0 {
		stride = 1
	}
	start := segs[0][0].Time
	out := make([]report.Series, 0, len(segs))
	for si, seg := range segs {
		sname := name
		if len(segs) > 1 {
			sname = fmt.Sprintf("%s [segment %d]", name, si+1)
		}
		var pts []stats.CDFPoint
		for i := 0; i < len(seg); i += stride {
			snap := seg[i]
			pts = append(pts, stats.CDFPoint{
				X: snap.Time.Sub(start).Hours(),
				F: float64(snap.TotalVSize) / 1e6,
			})
		}
		out = append(out, report.Series{Name: sname, Points: pts})
	}
	return out
}

// annotateGaps notes an observer's snapshot holes on a time-series figure.
// Clean streams add nothing, keeping complete-data output byte-stable.
func annotateGaps(f *report.Figure, data *sim.ObserverData) {
	gaps := mempool.FindGaps(data.Summaries, mempool.SnapshotInterval)
	if len(gaps) == 0 && data.MissedSnapshots == 0 {
		return
	}
	missed := 0
	for _, g := range gaps {
		missed += g.Missed
	}
	f.AddNote("%d snapshot gap(s), %d cadence slots missed (%d blackout-suppressed); series split per contiguous segment",
		len(gaps), missed, data.MissedSnapshots)
}
