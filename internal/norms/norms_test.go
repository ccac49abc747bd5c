package norms

import (
	"math"
	"testing"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/mempool"
)

var baseTime = time.Unix(1_577_836_800, 0)

func mkTx(rate float64, value chain.Amount, nonce uint16) *chain.Tx {
	fee := chain.Amount(rate * 250)
	tx := &chain.Tx{
		VSize: 250,
		Fee:   fee,
		Time:  baseTime,
		Inputs: []chain.TxIn{{
			PrevOut: chain.OutPoint{TxID: chain.TxID{byte(nonce), byte(nonce >> 8), 0xC3}},
			Address: "from",
			Value:   value + fee,
		}},
		Outputs: []chain.TxOut{{Address: "to", Value: value}},
	}
	tx.ComputeID()
	return tx
}

func poolWith(t *testing.T, seen []time.Time, txs ...*chain.Tx) []*mempool.Entry {
	t.Helper()
	p := mempool.New(mempool.WithMinFeeRate(0))
	for i, tx := range txs {
		at := baseTime
		if seen != nil {
			at = seen[i]
		}
		if err := p.Add(tx, at); err != nil {
			t.Fatal(err)
		}
	}
	return p.Entries()
}

func TestAgingLiftsStaleTransactions(t *testing.T) {
	// A cheap tx that waited 10 hours out-ranks a fresh expensive one when
	// aging credit is strong enough.
	stale := mkTx(5, chain.BTC, 1)
	fresh := mkTx(50, chain.BTC, 2)
	entries := poolWith(t,
		[]time.Time{baseTime, baseTime.Add(10 * time.Hour)},
		stale, fresh)

	aged := FeeRateWithAging{AgingRate: 1} // +1 sat/vB per 10 min: +60 over 10h
	tpl := aged.Build(entries, chain.MaxBlockVSize)
	if len(tpl.Txs) != 2 || tpl.Txs[0].ID != stale.ID {
		t.Error("stale tx not lifted by aging")
	}
	// With no aging the fresh expensive tx wins.
	none := FeeRateWithAging{AgingRate: 0}
	tpl = none.Build(entries, chain.MaxBlockVSize)
	if tpl.Txs[0].ID != fresh.ID {
		t.Error("zero aging rate changed the fee-rate order")
	}
	if aged.Name() == "" {
		t.Error("name")
	}
}

func TestAgingExplicitNowAnchor(t *testing.T) {
	stale := mkTx(5, chain.BTC, 1)
	fresh := mkTx(20, chain.BTC, 2)
	entries := poolWith(t, []time.Time{baseTime, baseTime.Add(time.Minute)}, stale, fresh)
	// Anchoring far in the future ages both almost equally: order reverts
	// to fee-rate (age difference is 1 minute = 0.1 sat/vB credit).
	p := FeeRateWithAging{AgingRate: 1, Now: baseTime.Add(100 * time.Hour)}
	tpl := p.Build(entries, chain.MaxBlockVSize)
	if tpl.Txs[0].ID != fresh.ID {
		t.Error("distant anchor should preserve fee-rate order")
	}
}

func TestValueDensityIgnoresFees(t *testing.T) {
	whale := mkTx(1, 1000*chain.BTC, 1)  // huge value, dust fee
	payer := mkTx(200, chain.BTC/100, 2) // small value, top fee
	entries := poolWith(t, nil, whale, payer)
	tpl := ValueDensity{}.Build(entries, chain.MaxBlockVSize)
	if len(tpl.Txs) != 2 || tpl.Txs[0].ID != whale.ID {
		t.Error("value norm did not favour the large transfer")
	}
	if (ValueDensity{}).Name() == "" {
		t.Error("name")
	}
	if (ValueDensity{}).Score(&mempool.Entry{Tx: &chain.Tx{}}) != 0 {
		t.Error("zero-vsize score")
	}
}

func TestCharacterize(t *testing.T) {
	// Build a chain: tx1 confirms next block, tx2 waits 3 blocks, tx3
	// never confirms.
	c := chain.New()
	tx1 := mkTx(50, chain.BTC, 1)
	tx2 := mkTx(2, chain.BTC, 2)
	mk := func(h int64, txs ...*chain.Tx) *chain.Block {
		var fees chain.Amount
		for _, tx := range txs {
			fees += tx.Fee
		}
		cb := &chain.Tx{
			VSize:       120,
			Time:        baseTime.Add(time.Duration(h) * 10 * time.Minute),
			Outputs:     []chain.TxOut{{Address: "p", Value: chain.Subsidy(h) + fees}},
			CoinbaseTag: "/P/",
		}
		cb.ComputeID()
		b := &chain.Block{Height: h, Time: cb.Time, Txs: append([]*chain.Tx{cb}, txs...)}
		b.ComputeHash([32]byte{})
		return b
	}
	c.Append(mk(100, tx1))
	c.Append(mk(101))
	c.Append(mk(102, tx2))

	seen := map[chain.TxID]int64{
		tx1.ID: 99,
		tx2.ID: 99,
		{0xEE}: 99, // never confirmed: starved
	}
	ch := Characterize("test", c, seen)
	if ch.Observed != 3 || ch.Confirmed != 2 || ch.Starved != 1 {
		t.Fatalf("counts: %+v", ch)
	}
	if ch.DelayMax != 3 || ch.DelayP50 != 2 {
		t.Errorf("delays: %+v", ch)
	}
	if math.IsNaN(ch.LowFeeDelayP50) || ch.LowFeeDelayP50 != 3 {
		t.Errorf("low-fee delay = %v, want 3 (tx2 is the cheap decile)", ch.LowFeeDelayP50)
	}
	wantFees := float64(tx1.Fee+tx2.Fee) / 3
	if math.Abs(ch.FeePerBlock-wantFees) > 1e-9 {
		t.Errorf("fee/block = %v, want %v", ch.FeePerBlock, wantFees)
	}
	// Empty observation set.
	empty := Characterize("empty", c, nil)
	if empty.Observed != 0 || empty.Confirmed != 0 {
		t.Error("empty characterization")
	}
}

func TestStarvationHorizonCounts(t *testing.T) {
	c := chain.New()
	tx := mkTx(1, chain.BTC, 9)
	var blocks []*chain.Block
	for h := int64(0); h < StarvationHorizon+3; h++ {
		var body []*chain.Tx
		if h == StarvationHorizon+2 {
			body = []*chain.Tx{tx}
		}
		var fees chain.Amount
		for _, b := range body {
			fees += b.Fee
		}
		cb := &chain.Tx{
			VSize:       120,
			Time:        baseTime.Add(time.Duration(h) * time.Minute),
			Outputs:     []chain.TxOut{{Address: "p", Value: chain.Subsidy(h) + fees}},
			CoinbaseTag: "/P/",
		}
		cb.ComputeID()
		b := &chain.Block{Height: h, Time: cb.Time, Txs: append([]*chain.Tx{cb}, body...)}
		b.ComputeHash([32]byte{})
		blocks = append(blocks, b)
		if err := c.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	_ = blocks
	ch := Characterize("slow", c, map[chain.TxID]int64{tx.ID: 0})
	if ch.Starved != 1 {
		t.Errorf("tx waiting %d blocks not counted starved: %+v", StarvationHorizon+2, ch)
	}
	if ch.Confirmed != 1 {
		t.Error("starved-but-confirmed must still count as confirmed")
	}
}

// TestCharacterizeIgnoresSeenOrder shows Characterize is a function of its
// seen map's contents: Go randomizes each range over a map, and every
// repeat over the same map, fee-rate ties and unconfirmed entries included,
// gives the same characterization, because each percentile is taken over a
// sorted copy.
func TestCharacterizeIgnoresSeenOrder(t *testing.T) {
	c := chain.New()
	seen := map[chain.TxID]int64{{0xEE}: 3, {0xEF}: 7}
	nonce := uint16(0)
	for h := int64(0); h < 12; h++ {
		var body []*chain.Tx
		var fees chain.Amount
		for i := int64(0); i < h%4+1; i++ {
			nonce++
			tx := mkTx(float64(1+(h*i)%5), chain.BTC, nonce)
			body = append(body, tx)
			fees += tx.Fee
			seen[tx.ID] = max(0, h-i-1)
		}
		cb := &chain.Tx{
			VSize:       120,
			Time:        baseTime.Add(time.Duration(h) * 10 * time.Minute),
			Outputs:     []chain.TxOut{{Address: "p", Value: chain.Subsidy(h) + fees}},
			CoinbaseTag: "/P/",
		}
		cb.ComputeID()
		b := &chain.Block{Height: h, Time: cb.Time, Txs: append([]*chain.Tx{cb}, body...)}
		b.ComputeHash([32]byte{})
		if err := c.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	want := Characterize("order", c, seen)
	if want.Confirmed < 20 || want.Starved != 2 {
		t.Fatalf("fixture too small to exercise ordering: %+v", want)
	}
	for i := 0; i < 50; i++ {
		if got := Characterize("order", c, seen); got != want {
			t.Fatalf("repeat %d: %+v, first run %+v", i, got, want)
		}
	}
}
