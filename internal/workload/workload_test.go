package workload

import (
	"math"
	"testing"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/mempool"
	"chainaudit/internal/stats"
	"chainaudit/internal/wallet"
)

var baseTime = time.Unix(1_577_836_800, 0) // 2020-01-01

func TestFeeModelMarginals(t *testing.T) {
	m := NewFeeModel(stats.NewRNG(1))
	n := 100_000
	inBand := 0 // 10..100 sat/vB, the paper's 1e-4..1e-3 BTC/KB band
	subMin := 0
	for i := 0; i < n; i++ {
		r := float64(m.SampleRate(mempool.CongestionLow))
		if r < 0 {
			t.Fatal("negative rate")
		}
		if r >= 10 && r < 100 {
			inBand++
		}
		if r < 1 {
			subMin++
		}
	}
	frac := float64(inBand) / float64(n)
	if frac < 0.60 || frac > 0.85 {
		t.Errorf("10-100 sat/vB band fraction = %v, want ~0.7", frac)
	}
	subFrac := float64(subMin) / float64(n)
	if subFrac > 0.002 {
		t.Errorf("sub-minimum fraction = %v, want tiny", subFrac)
	}
}

func TestFeeModelCongestionMonotone(t *testing.T) {
	// Higher congestion must shift the distribution up (Figure 4c).
	medians := make([]float64, 4)
	for level := 0; level < 4; level++ {
		m := NewFeeModel(stats.NewRNG(42)) // same stream per level
		vals := make([]float64, 20_000)
		for i := range vals {
			vals[i] = float64(m.SampleRate(mempool.CongestionLevel(level)))
		}
		medians[level] = stats.PercentileUnsorted(vals, 50)
	}
	for i := 1; i < 4; i++ {
		if medians[i] <= medians[i-1] {
			t.Errorf("median at level %d (%v) not above level %d (%v)",
				i, medians[i], i-1, medians[i-1])
		}
	}
}

func TestSizeModel(t *testing.T) {
	m := NewSizeModel(stats.NewRNG(3))
	vals := make([]float64, 50_000)
	for i := range vals {
		v := m.Sample()
		if v < m.Min || v > m.Max {
			t.Fatalf("size %d out of [%d,%d]", v, m.Min, m.Max)
		}
		vals[i] = float64(v)
	}
	med := stats.PercentileUnsorted(vals, 50)
	if math.Abs(med-250)/250 > 0.1 {
		t.Errorf("median size = %v, want ~250", med)
	}
}

func TestUserTxValidAndDiverse(t *testing.T) {
	g := NewGenerator(stats.NewRNG(7), 500)
	ids := make(map[chain.TxID]bool)
	children := 0
	for i := 0; i < 5_000; i++ {
		tx := g.UserTx(baseTime.Add(time.Duration(i)*time.Second), mempool.CongestionLow)
		if err := tx.Validate(); err != nil {
			t.Fatalf("tx %d invalid: %v", i, err)
		}
		if ids[tx.ID] {
			t.Fatalf("duplicate txid at %d", i)
		}
		ids[tx.ID] = true
		if tx.Inputs[0].PrevOut.TxID[0] != 0xFD {
			children++
		}
	}
	frac := float64(children) / 5000
	if frac < 0.10 || frac > 0.30 {
		t.Errorf("child fraction = %v, want ~0.20", frac)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(stats.NewRNG(11), 100)
	b := NewGenerator(stats.NewRNG(11), 100)
	for i := 0; i < 200; i++ {
		now := baseTime.Add(time.Duration(i) * time.Second)
		ta := a.UserTx(now, mempool.CongestionMid)
		tb := b.UserTx(now, mempool.CongestionMid)
		if ta.ID != tb.ID {
			t.Fatalf("diverged at %d", i)
		}
	}
}

func TestForgetDropsConfirmedParents(t *testing.T) {
	g := NewGenerator(stats.NewRNG(13), 50)
	var first *chain.Tx
	for i := 0; i < 50; i++ {
		tx := g.UserTx(baseTime, mempool.CongestionNone)
		if first == nil {
			first = tx
		}
	}
	before := len(g.recent)
	g.Forget(map[chain.TxID]bool{first.ID: true})
	if len(g.recent) != before-1 {
		t.Errorf("Forget removed %d entries", before-len(g.recent))
	}
}

func TestPoolPayout(t *testing.T) {
	g := NewGenerator(stats.NewRNG(17), 100)
	book := wallet.NewBook("F2Pool", 12)
	for i := 0; i < 500; i++ {
		tx := g.PoolPayout(baseTime, book)
		if err := tx.Validate(); err != nil {
			t.Fatal(err)
		}
		if !book.Contains(tx.Inputs[0].Address) {
			t.Fatal("payout not from pool wallet")
		}
		r := float64(tx.FeeRate())
		if r < 4.9 || r > 15.1 {
			t.Fatalf("payout fee-rate %v outside 5-15 sat/vB", r)
		}
	}
}

func TestScamPayment(t *testing.T) {
	g := NewGenerator(stats.NewRNG(19), 100)
	scam := wallet.DeriveAddress("twitter-scam")
	total := chain.Amount(0)
	for i := 0; i < 386; i++ {
		tx := g.ScamPayment(baseTime, scam, mempool.CongestionLow)
		if err := tx.Validate(); err != nil {
			t.Fatal(err)
		}
		if tx.Outputs[0].Address != scam {
			t.Fatal("scam payment not to scam wallet")
		}
		if tx.FeeRate() < 1 {
			t.Fatal("scam payment below relay minimum")
		}
		total += tx.Outputs[0].Value
	}
	// ~386 × ~0.04 BTC should land in the same decade as the real 12.87 BTC.
	if btc := total.BTCValue(); btc < 4 || btc > 40 {
		t.Errorf("scam haul = %v BTC, want O(13)", btc)
	}
}

func TestLowBallTx(t *testing.T) {
	g := NewGenerator(stats.NewRNG(23), 100)
	zero := 0
	for i := 0; i < 1000; i++ {
		tx := g.LowBallTx(baseTime)
		if err := tx.Validate(); err != nil {
			t.Fatal(err)
		}
		if tx.FeeRate() >= chain.MinRelayFeeRate {
			t.Fatalf("low-ball tx at %v sat/vB", float64(tx.FeeRate()))
		}
		if tx.Fee == 0 {
			zero++
		}
	}
	// The paper saw 45.1% zero-fee among sub-minimum transactions.
	if zero < 350 || zero > 750 {
		t.Errorf("zero-fee share = %d/1000, want ~450-550", zero)
	}
}

func TestConstantRate(t *testing.T) {
	if ConstantRate(3.5).RateAt(baseTime) != 3.5 {
		t.Error("constant rate broken")
	}
}

func TestPiecewiseRate(t *testing.T) {
	p := PiecewiseRate{
		{Start: baseTime, Rate: 1},
		{Start: baseTime.Add(time.Hour), Rate: 5},
		{Start: baseTime.Add(2 * time.Hour), Rate: 2},
	}
	cases := []struct {
		at   time.Time
		want float64
	}{
		{baseTime.Add(-time.Minute), 1},
		{baseTime, 1},
		{baseTime.Add(30 * time.Minute), 1},
		{baseTime.Add(time.Hour), 5},
		{baseTime.Add(90 * time.Minute), 5},
		{baseTime.Add(3 * time.Hour), 2},
	}
	for _, c := range cases {
		if got := p.RateAt(c.at); got != c.want {
			t.Errorf("RateAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
	if got := p.MaxRate(); got != 5 {
		t.Errorf("MaxRate = %v", got)
	}
	if PiecewiseRate(nil).RateAt(baseTime) != 0 {
		t.Error("empty schedule rate")
	}
	if PiecewiseRate(nil).MaxRate() != 0 {
		t.Error("empty schedule max")
	}
}

func TestCongestionWavesShape(t *testing.T) {
	rng := stats.NewRNG(29)
	span := 7 * 24 * time.Hour
	waves := CongestionWaves(rng, baseTime, span, 3, 8, 4*time.Hour, 2*time.Hour)
	if len(waves) < 10 {
		t.Fatalf("too few phases: %d", len(waves))
	}
	for i := 1; i < len(waves); i++ {
		if !waves[i].Start.After(waves[i-1].Start) {
			t.Fatal("phases not strictly increasing")
		}
	}
	// Rates alternate roughly between the calm and burst bands.
	lows, highs := 0, 0
	for _, ph := range waves {
		if ph.Rate < 5 {
			lows++
		} else {
			highs++
		}
	}
	if lows == 0 || highs == 0 {
		t.Errorf("no alternation: %d low, %d high", lows, highs)
	}
}

func TestNextArrivalMatchesRate(t *testing.T) {
	rng := stats.NewRNG(31)
	sched := ConstantRate(4)
	now := baseTime
	n := 20_000
	for i := 0; i < n; i++ {
		now = NextArrival(rng, sched, now, 4)
	}
	elapsed := now.Sub(baseTime).Seconds()
	gotRate := float64(n) / elapsed
	if math.Abs(gotRate-4)/4 > 0.05 {
		t.Errorf("realized rate = %v, want ~4", gotRate)
	}
}

func TestNextArrivalThinning(t *testing.T) {
	// A schedule at half the bound must be realized at half the rate.
	rng := stats.NewRNG(37)
	sched := ConstantRate(2)
	now := baseTime
	n := 10_000
	for i := 0; i < n; i++ {
		now = NextArrival(rng, sched, now, 4)
	}
	gotRate := float64(n) / now.Sub(baseTime).Seconds()
	if math.Abs(gotRate-2)/2 > 0.05 {
		t.Errorf("thinned rate = %v, want ~2", gotRate)
	}
	// Zero bound: effectively never.
	far := NextArrival(rng, sched, baseTime, 0)
	if far.Sub(baseTime) < 24*time.Hour {
		t.Error("zero max rate should defer far into the future")
	}
}
