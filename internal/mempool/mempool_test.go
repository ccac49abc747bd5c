package mempool

import (
	"errors"
	"testing"
	"time"

	"chainaudit/internal/chain"
)

var baseTime = time.Unix(1_600_000_000, 0)

// mkTx builds a standalone valid transaction with the given fee and vsize.
func mkTx(fee chain.Amount, vsize int64, nonce byte) *chain.Tx {
	tx := &chain.Tx{
		VSize: vsize,
		Fee:   fee,
		Time:  baseTime,
		Inputs: []chain.TxIn{{
			PrevOut: chain.OutPoint{TxID: chain.TxID{nonce, 0xAA}, Index: 0},
			Address: "sender",
			Value:   chain.BTC + fee,
		}},
		Outputs: []chain.TxOut{{Address: "receiver", Value: chain.BTC}},
	}
	tx.ComputeID()
	return tx
}

// mkChild spends output 0 of parent.
func mkChild(parent *chain.Tx, fee chain.Amount, vsize int64) *chain.Tx {
	tx := &chain.Tx{
		VSize: vsize,
		Fee:   fee,
		Time:  parent.Time.Add(time.Second),
		Inputs: []chain.TxIn{{
			PrevOut: chain.OutPoint{TxID: parent.ID, Index: 0},
			Address: parent.Outputs[0].Address,
			Value:   parent.Outputs[0].Value,
		}},
		Outputs: []chain.TxOut{{Address: "next", Value: parent.Outputs[0].Value - fee}},
	}
	tx.ComputeID()
	return tx
}

func TestAddRemoveBasics(t *testing.T) {
	p := New()
	tx := mkTx(500, 250, 1)
	if err := p.Add(tx, baseTime); err != nil {
		t.Fatal(err)
	}
	if !p.Contains(tx.ID) || p.Len() != 1 {
		t.Fatal("tx not admitted")
	}
	if got := p.TotalVSize(); got != 250 {
		t.Errorf("TotalVSize = %d", got)
	}
	if e := p.Get(tx.ID); e == nil || !e.FirstSeen.Equal(baseTime) {
		t.Error("entry metadata wrong")
	}
	if !p.Remove(tx.ID) {
		t.Error("Remove failed")
	}
	if p.Remove(tx.ID) {
		t.Error("double remove succeeded")
	}
	if p.Len() != 0 || p.TotalVSize() != 0 {
		t.Error("pool not empty after removal")
	}
}

func TestAddDuplicate(t *testing.T) {
	p := New()
	tx := mkTx(500, 250, 1)
	if err := p.Add(tx, baseTime); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(tx, baseTime.Add(time.Second)); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate add: %v", err)
	}
}

func TestMinFeePolicy(t *testing.T) {
	p := New() // default 1 sat/vB
	low := mkTx(100, 250, 1)
	if err := p.Add(low, baseTime); !errors.Is(err, ErrBelowMinFee) {
		t.Errorf("0.4 sat/vB accepted by default node: %v", err)
	}
	// A permissive node (data set B configuration) accepts everything,
	// including zero-fee transactions.
	b := New(WithMinFeeRate(0))
	if err := b.Add(low, baseTime); err != nil {
		t.Errorf("permissive node rejected: %v", err)
	}
	zero := mkTx(0, 250, 2)
	if err := b.Add(zero, baseTime); err != nil {
		t.Errorf("zero-fee rejected by permissive node: %v", err)
	}
}

func TestConflictDetection(t *testing.T) {
	p := New()
	a := mkTx(500, 250, 7)
	if err := p.Add(a, baseTime); err != nil {
		t.Fatal(err)
	}
	// b spends the same outpoint as a.
	b := mkTx(600, 250, 7)
	b.Fee = 600
	b.Inputs[0].Value = chain.BTC + 600
	b.ComputeID()
	if err := p.Add(b, baseTime); !errors.Is(err, ErrConflict) {
		t.Errorf("double spend accepted: %v", err)
	}
	// After removing a, the outpoint frees up.
	p.Remove(a.ID)
	if err := p.Add(b, baseTime); err != nil {
		t.Errorf("post-removal add failed: %v", err)
	}
}

func TestRejectsInvalidAndCoinbase(t *testing.T) {
	p := New()
	bad := mkTx(10, 0, 1)
	if err := p.Add(bad, baseTime); !errors.Is(err, chain.ErrInvalidTx) {
		t.Errorf("invalid tx: %v", err)
	}
	cb := &chain.Tx{VSize: 100, Outputs: []chain.TxOut{{Address: "p", Value: 1}}}
	cb.ComputeID()
	if err := p.Add(cb, baseTime); !errors.Is(err, chain.ErrInvalidTx) {
		t.Errorf("coinbase: %v", err)
	}
}

func TestAncestryTracking(t *testing.T) {
	p := New()
	parent := mkTx(250, 250, 3) // 1 sat/vB: admitted, low priority
	child := mkChild(parent, 50_000, 200)
	grandchild := mkChild(child, 40_000, 200)

	for _, tx := range []*chain.Tx{parent, child, grandchild} {
		if err := p.Add(tx, baseTime); err != nil {
			t.Fatal(err)
		}
	}
	ce := p.Get(child.ID)
	if len(ce.Parents()) != 1 || ce.Parents()[0].Tx.ID != parent.ID {
		t.Error("child parent link wrong")
	}
	pe := p.Get(parent.ID)
	if len(pe.Children()) != 1 || pe.Children()[0].Tx.ID != child.ID {
		t.Error("parent child link wrong")
	}
	anc := p.Get(grandchild.ID).Ancestors()
	if len(anc) != 2 {
		t.Fatalf("grandchild ancestors = %d, want 2", len(anc))
	}
	if _, ok := anc[parent.ID]; !ok {
		t.Error("transitive ancestor missing")
	}

	// Removing the parent (confirmation) unlinks the child.
	p.Remove(parent.ID)
	if len(p.Get(child.ID).Parents()) != 0 {
		t.Error("child still linked to removed parent")
	}
	if got := len(p.Get(grandchild.ID).Ancestors()); got != 1 {
		t.Errorf("grandchild ancestors after removal = %d", got)
	}
}

func TestRemoveConfirmed(t *testing.T) {
	p := New()
	a := mkTx(500, 250, 1)
	b := mkTx(600, 250, 2)
	p.Add(a, baseTime)
	p.Add(b, baseTime)

	cb := &chain.Tx{
		VSize:       120,
		Time:        baseTime,
		Outputs:     []chain.TxOut{{Address: "pool", Value: chain.Subsidy(650_000) + 500}},
		CoinbaseTag: "/P/",
	}
	cb.ComputeID()
	blk := &chain.Block{Height: 650_000, Time: baseTime, Txs: []*chain.Tx{cb, a}}
	if n := p.RemoveConfirmed(blk); n != 1 {
		t.Errorf("RemoveConfirmed = %d", n)
	}
	if p.Contains(a.ID) || !p.Contains(b.ID) {
		t.Error("wrong txs removed")
	}
}

func TestEntriesDeterministicOrder(t *testing.T) {
	p := New()
	t0 := baseTime
	a := mkTx(500, 250, 1)
	b := mkTx(600, 250, 2)
	c := mkTx(700, 250, 3)
	p.Add(b, t0.Add(2*time.Second))
	p.Add(a, t0)
	p.Add(c, t0.Add(time.Second))
	got := p.Entries()
	if len(got) != 3 {
		t.Fatal("entries missing")
	}
	if got[0].Tx.ID != a.ID || got[1].Tx.ID != c.ID || got[2].Tx.ID != b.ID {
		t.Error("entries not in first-seen order")
	}
}

func TestCongestionLevels(t *testing.T) {
	mb := chain.MaxBlockVSize
	cases := []struct {
		size int64
		want CongestionLevel
	}{
		{0, CongestionNone},
		{mb, CongestionNone},
		{mb + 1, CongestionLow},
		{2 * mb, CongestionLow},
		{2*mb + 1, CongestionMid},
		{4 * mb, CongestionMid},
		{4*mb + 1, CongestionHigh},
		{15 * mb, CongestionHigh},
	}
	for _, c := range cases {
		if got := CongestionAt(c.size, 0); got != c.want {
			t.Errorf("CongestionAt(%d, 0) = %v, want %v", c.size, got, c.want)
		}
	}
	for _, l := range []CongestionLevel{CongestionNone, CongestionLow, CongestionMid, CongestionHigh} {
		if l.String() == "" || l.String() == "invalid" {
			t.Errorf("level %d renders %q", l, l.String())
		}
	}
	if CongestionLevel(99).String() != "invalid" {
		t.Error("invalid level string")
	}
}

func TestSnapshots(t *testing.T) {
	p := New()
	a := mkTx(600_000, 300_000, 1)
	b := mkTx(1_800_000, 900_000, 2)
	if err := p.Add(a, baseTime); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(b, baseTime.Add(time.Second)); err != nil {
		t.Fatal(err)
	}

	sum := p.Summary(baseTime.Add(15*time.Second), 700)
	if sum.Full() {
		t.Error("summary should not be full")
	}
	if sum.Count != 2 || sum.TotalVSize != 1_200_000 || sum.TipHeight != 700 {
		t.Errorf("summary = %+v", sum)
	}
	if got := CongestionAt(sum.TotalVSize, sum.Capacity); got != CongestionLow {
		t.Errorf("congestion = %v", got)
	}

	full := p.Capture(baseTime.Add(15*time.Second), 700)
	if !full.Full() || len(full.Txs) != 2 {
		t.Fatalf("capture = %+v", full)
	}
	if full.Txs[0].Tx.ID != a.ID {
		t.Error("capture order wrong")
	}
	if full.Txs[0].FirstSeen != baseTime {
		t.Error("capture first-seen wrong")
	}
	if SnapshotInterval != 15*time.Second {
		t.Error("snapshot cadence changed")
	}
}
