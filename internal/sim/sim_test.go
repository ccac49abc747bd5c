package sim

import (
	"strings"
	"testing"
	"time"

	"chainaudit/internal/accel"
	"chainaudit/internal/chain"
	"chainaudit/internal/gbt"
	"chainaudit/internal/mempool"
	"chainaudit/internal/miner"
	"chainaudit/internal/obs"
	"chainaudit/internal/stats"
	"chainaudit/internal/wallet"
	"chainaudit/internal/workload"
)

var simStart = time.Unix(1_577_836_800, 0)

// smallConfig builds a quick run: a few pools, modest congestion, all event
// streams active.
func smallConfig(seed uint64) Config {
	pools := []*miner.Pool{
		miner.NewPool("F2Pool", "/F2Pool/", 0.30, 4),
		miner.NewPool("Poolin", "/Poolin/", 0.25, 4),
		miner.NewPool("BTC.com", "/BTC.com/", 0.20, 4),
		miner.NewPool("ViaBTC", "/ViaBTC/", 0.15, 4),
	}
	pools[0].AllowLowFee = true
	capacity := int64(50_000)
	// ~1.1x capacity on average: persistent mild congestion.
	rate := 1.1 * float64(capacity) / 600.0 / 300.0
	return Config{
		Seed:               seed,
		Start:              simStart,
		Duration:           8 * time.Hour,
		Pools:              pools,
		BlockCapacity:      capacity,
		Arrivals:           workload.ConstantRate(rate),
		MaxArrivalRate:     rate,
		Users:              300,
		PayoutMeanInterval: 30 * time.Minute,
		LowFeeMeanInterval: time.Hour,
		Observers: []ObserverConfig{
			{Name: "default", MinFeeRate: 1, MedianDelay: 1200 * time.Millisecond, FullSnapshotEvery: 40},
			{Name: "permissive", MinFeeRate: 0, MedianDelay: 400 * time.Millisecond, FullSnapshotEvery: 40},
		},
	}
}

func TestRunProducesConsistentWorld(t *testing.T) {
	res, err := Run(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Chain.Len() < 20 {
		t.Fatalf("only %d blocks in 8h", res.Chain.Len())
	}
	if res.TxIssued < 500 {
		t.Fatalf("only %d txs issued", res.TxIssued)
	}
	// Chain integrity: heights contiguous, blocks valid, times increasing.
	blocks := res.Chain.Blocks()
	for i, b := range blocks {
		if err := b.Validate(); err != nil {
			t.Fatalf("block %d invalid: %v", i, err)
		}
		if b.VSize() > 50_000+120 {
			t.Fatalf("block %d exceeds configured capacity: %d", i, b.VSize())
		}
		if i > 0 {
			if b.Height != blocks[i-1].Height+1 {
				t.Fatal("height gap")
			}
			if b.Time.Before(blocks[i-1].Time) {
				t.Fatal("time regression")
			}
		}
	}
	// Every block attributed to a configured pool.
	for _, b := range blocks {
		if b.MinerTag() == "" {
			t.Fatal("unattributed block")
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Chain.Len() != b.Chain.Len() || a.TxIssued != b.TxIssued {
		t.Fatalf("runs diverged: %d/%d blocks, %d/%d txs",
			a.Chain.Len(), b.Chain.Len(), a.TxIssued, b.TxIssued)
	}
	for i := range a.Chain.Blocks() {
		if a.Chain.Blocks()[i].Hash != b.Chain.Blocks()[i].Hash {
			t.Fatalf("block %d hash diverged", i)
		}
	}
	c, err := Run(smallConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if c.Chain.Len() == a.Chain.Len() && c.TxIssued == a.TxIssued {
		t.Error("different seeds produced identical run summary (suspicious)")
	}
}

func TestObserversRecord(t *testing.T) {
	res, err := Run(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	def := res.Observer("default")
	perm := res.Observer("permissive")
	if def == nil || perm == nil {
		t.Fatal("observers missing")
	}
	// 8h at 15s cadence: ~1920 summaries.
	if len(def.Summaries) < 1800 || len(def.Summaries) > 1930 {
		t.Errorf("default summaries = %d", len(def.Summaries))
	}
	if len(def.Fulls) == 0 {
		t.Error("no full snapshots")
	}
	for _, s := range def.Fulls {
		if !s.Full() {
			t.Fatal("full snapshot without txs")
		}
		if s.Capacity != 50_000 {
			t.Fatal("snapshot capacity not propagated")
		}
	}
	// The permissive node sees (essentially) everything; the default node
	// drops sub-minimum transactions.
	if def.DroppedBelowMin == 0 {
		t.Error("default node never dropped a low-fee tx")
	}
	if perm.DroppedBelowMin != 0 {
		t.Error("permissive node dropped txs")
	}
	if len(perm.Seen) <= len(def.Seen) {
		t.Errorf("permissive saw %d <= default %d", len(perm.Seen), len(def.Seen))
	}
	// Seen metadata is sane.
	checked := 0
	for id, info := range perm.Seen {
		if info.Time.Before(simStart) {
			t.Fatal("seen before start")
		}
		if loc, ok := res.Chain.Locate(id); ok {
			if loc.Height < info.TipHeight {
				t.Fatalf("confirmed below seen tip: %d < %d", loc.Height, info.TipHeight)
			}
		}
		checked++
		if checked > 2000 {
			break
		}
	}
}

func TestPayoutsAndLowFeeGroundTruth(t *testing.T) {
	res, err := Run(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	totalPayouts := 0
	for pool, ids := range res.Truth.PayoutTxs {
		if len(ids) == 0 {
			t.Errorf("pool %s issued no payouts", pool)
		}
		totalPayouts += len(ids)
	}
	// 4 pools × ~16 payouts in 8h at 30m mean.
	if totalPayouts < 20 || totalPayouts > 150 {
		t.Errorf("total payouts = %d", totalPayouts)
	}
	if len(res.Truth.LowFeeTxs) == 0 {
		t.Error("no low-fee txs issued")
	}
	// Low-fee transactions may only be confirmed by AllowLowFee pools.
	for _, id := range res.Truth.LowFeeTxs {
		loc, ok := res.Chain.Locate(id)
		if !ok {
			continue
		}
		b := res.Chain.BlockAt(loc.Height)
		if b.MinerTag() != "/F2Pool/Mined by F2Pool" {
			t.Errorf("low-fee tx confirmed by strict pool %q", b.MinerTag())
		}
	}
}

func TestScamEpisode(t *testing.T) {
	cfg := smallConfig(4)
	scamWallet := wallet.DeriveAddress("twitter-scam")
	cfg.Scam = &ScamConfig{
		Wallet: scamWallet,
		Start:  simStart.Add(2 * time.Hour),
		End:    simStart.Add(5 * time.Hour),
		Count:  60,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Truth.ScamTxs) != 60 {
		t.Fatalf("scam txs = %d", len(res.Truth.ScamTxs))
	}
	confirmed := 0
	for _, id := range res.Truth.ScamTxs {
		if res.Chain.Contains(id) {
			confirmed++
		}
	}
	// Nobody censors by default: most must confirm (stragglers with cheap
	// fees may still be pending when the congested run ends).
	if confirmed < 35 {
		t.Errorf("only %d/60 scam txs confirmed", confirmed)
	}
	if res.Truth.ScamWallet != scamWallet {
		t.Error("scam wallet not recorded")
	}
}

func TestSelfishPoolWinsItsOwnPayouts(t *testing.T) {
	cfg := smallConfig(5)
	// ViaBTC (15% hash rate) selfishly accelerates its own payouts. Push
	// arrivals to 1.3x capacity so modest-fee payouts genuinely wait.
	rate := 1.3 * float64(cfg.BlockCapacity) / 600.0 / 300.0
	cfg.Arrivals = workload.ConstantRate(rate)
	cfg.MaxArrivalRate = rate
	cfg.Pools[3].PrioritizeOwnWallets()
	cfg.PayoutPools = []string{"ViaBTC"}
	cfg.PayoutMeanInterval = 12 * time.Minute
	cfg.Duration = 12 * time.Hour
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := res.Truth.PayoutTxs["ViaBTC"]
	if len(ids) < 20 {
		t.Fatalf("too few payouts: %d", len(ids))
	}
	own, other := 0, 0
	for _, id := range ids {
		loc, ok := res.Chain.Locate(id)
		if !ok {
			continue
		}
		if res.Chain.BlockAt(loc.Height).MinerTag() == "/ViaBTC/Mined by ViaBTC" {
			own++
		} else {
			other++
		}
	}
	if own+other == 0 {
		t.Fatal("no payouts confirmed")
	}
	// With 15% hash rate but self-acceleration under congestion, ViaBTC
	// should capture clearly more than its fair share of its own payouts
	// (the paper's Table 2 pools show 2-6x amplification).
	frac := float64(own) / float64(own+other)
	if frac < 0.25 {
		t.Errorf("ViaBTC mined %.0f%% of its payouts; expected amplification above 15%%", frac*100)
	}
}

func TestAccelerationPurchases(t *testing.T) {
	cfg := smallConfig(6)
	svc := accel.NewService("BTC.com", stats.NewRNG(99))
	cfg.Accel = []*accel.Service{svc}
	cfg.AccelProb = 0.5
	cfg.Pools[2].SellAcceleration(svc.IsAccelerated) // BTC.com
	cfg.Duration = 12 * time.Hour
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := res.Truth.Accelerated["BTC.com"]
	if len(recs) == 0 {
		t.Fatal("no accelerations purchased")
	}
	if svc.Len() != len(recs) {
		t.Error("truth out of sync with service")
	}
	// Accelerated txs that BTC.com mined should sit near the top of the
	// block despite low public fees.
	topPlaced := 0
	checked := 0
	for _, r := range recs {
		loc, ok := res.Chain.Locate(r.TxID)
		if !ok {
			continue
		}
		b := res.Chain.BlockAt(loc.Height)
		if b.MinerTag() != "/BTC.com/Mined by BTC.com" {
			continue
		}
		checked++
		if loc.Index <= len(b.Body())/4 {
			topPlaced++
		}
	}
	if checked > 0 && topPlaced*2 < checked {
		t.Errorf("only %d/%d accelerated txs near top of BTC.com blocks", topPlaced, checked)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	cfg := smallConfig(1)
	cfg.Pools = nil
	if _, err := Run(cfg); err == nil {
		t.Error("no pools accepted")
	}
	cfg = smallConfig(1)
	cfg.MaxArrivalRate = 0
	cfg.Arrivals = workload.ConstantRate(1)
	if _, err := Run(cfg); err == nil {
		t.Error("missing rate bound accepted")
	}
	cfg = smallConfig(1)
	cfg.PayoutPools = []string{"NoSuchPool"}
	if _, err := Run(cfg); err == nil {
		t.Error("unknown payout pool accepted")
	}
	cfg = smallConfig(1)
	cfg.Observers = []ObserverConfig{{}}
	if _, err := Run(cfg); err == nil {
		t.Error("unnamed observer accepted")
	}
	cfg = smallConfig(1)
	cfg.Scam = &ScamConfig{Wallet: "x", Start: simStart, End: simStart, Count: 5}
	if _, err := Run(cfg); err == nil {
		t.Error("empty scam window accepted")
	}
}

func TestCongestionDevelops(t *testing.T) {
	cfg := smallConfig(9)
	// Push arrivals well past capacity.
	rate := 2.0 * float64(cfg.BlockCapacity) / 600.0 / 300.0
	cfg.Arrivals = workload.ConstantRate(rate)
	cfg.MaxArrivalRate = rate
	cfg.Duration = 6 * time.Hour
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perm := res.Observer("permissive")
	congested := 0
	for _, s := range perm.Summaries {
		if mempool.CongestionAt(s.TotalVSize, s.Capacity) > mempool.CongestionNone {
			congested++
		}
	}
	frac := float64(congested) / float64(len(perm.Summaries))
	if frac < 0.5 {
		t.Errorf("congested fraction = %v under 2x overload", frac)
	}
	// Confirmed fee-rates under congestion should exceed the issue median:
	// cheap txs wait.
	var confirmedRates []float64
	for _, b := range res.Chain.Blocks() {
		for _, tx := range b.Body() {
			confirmedRates = append(confirmedRates, float64(tx.FeeRate()))
		}
	}
	if len(confirmedRates) == 0 {
		t.Fatal("nothing confirmed")
	}
	med := stats.PercentileUnsorted(confirmedRates, 50)
	if med < 20 {
		t.Errorf("median confirmed fee-rate %v; congestion should push it up", med)
	}
	_ = chain.MaxBlockVSize
}

func TestRBFReplacementsWin(t *testing.T) {
	cfg := smallConfig(11)
	cfg.RBFProb = 0.08
	cfg.RBFDelay = 5 * time.Minute
	cfg.Duration = 10 * time.Hour
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Truth.Replacements) < 10 {
		t.Fatalf("replacements = %d, want a few dozen", len(res.Truth.Replacements))
	}
	oldWins, newWins, bothPending := 0, 0, 0
	for _, r := range res.Truth.Replacements {
		oldConfirmed := res.Chain.Contains(r.Old)
		newConfirmed := res.Chain.Contains(r.New)
		if oldConfirmed && newConfirmed {
			t.Fatalf("double spend: both %s and %s confirmed", r.Old.Short(), r.New.Short())
		}
		switch {
		case oldConfirmed:
			oldWins++
		case newConfirmed:
			newWins++
		default:
			bothPending++
		}
	}
	// The bump pays 1.3-3x: replacements must usually win.
	if newWins <= oldWins {
		t.Errorf("replacements won %d vs originals %d", newWins, oldWins)
	}
	t.Logf("RBF outcomes: new=%d old=%d pending=%d", newWins, oldWins, bothPending)
}

// dupPolicy is a deliberately broken template policy: it duplicates the
// first selected transaction, producing a block the chain must reject.
type dupPolicy struct{}

func (dupPolicy) Name() string { return "dup" }

func (dupPolicy) Build(entries []*mempool.Entry, maxVSize int64) gbt.Template {
	tpl := gbt.FeeRate{}.Build(entries, maxVSize)
	if len(tpl.Txs) > 0 {
		tpl.Txs = append(tpl.Txs, tpl.Txs[0])
		tpl.VSize += tpl.Txs[0].VSize
		tpl.TotalFee += tpl.Txs[0].Fee
	}
	return tpl
}

// TestInvalidMinedBlockFailsRunWithError locks in the ISSUE 2 bugfix: a
// template policy that emits an invalid block must fail the run with a
// contextual error, not panic the process.
func TestInvalidMinedBlockFailsRunWithError(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Run panicked instead of returning an error: %v", r)
		}
	}()
	cfg := smallConfig(3)
	cfg.Duration = 4 * time.Hour
	for _, p := range cfg.Pools {
		p.Policy = dupPolicy{}
	}
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("Run accepted an invalid mined block")
	}
	msg := err.Error()
	for _, want := range []string{"mined invalid block", "pool", "height"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

// TestRunRecordsObsCounters checks the simulator's observability hooks: a
// run must account its events, mined blocks, and snapshots.
func TestRunRecordsObsCounters(t *testing.T) {
	events0 := obs.Default.Counter("sim.events").Value()
	blocks0 := obs.Default.Counter("sim.blocks_mined").Value()
	snaps0 := obs.Default.Counter("sim.snapshots").Value()
	runs0 := obs.Default.Timer("sim.run").Stats().Count

	res, err := Run(smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if d := obs.Default.Counter("sim.blocks_mined").Value() - blocks0; d != int64(res.Chain.Len()) {
		t.Errorf("blocks_mined delta = %d, chain has %d blocks", d, res.Chain.Len())
	}
	if d := obs.Default.Counter("sim.events").Value() - events0; d < int64(res.TxIssued) {
		t.Errorf("events delta = %d, below issued tx count %d", d, res.TxIssued)
	}
	wantSnaps := int64(0)
	for _, od := range res.Observers {
		wantSnaps += int64(len(od.Summaries))
	}
	if d := obs.Default.Counter("sim.snapshots").Value() - snaps0; d != wantSnaps {
		t.Errorf("snapshots delta = %d, observers recorded %d", d, wantSnaps)
	}
	if d := obs.Default.Timer("sim.run").Stats().Count - runs0; d != 1 {
		t.Errorf("sim.run timer delta = %d, want 1", d)
	}
}
