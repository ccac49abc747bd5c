package chain

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func newTestTx(fee Amount, vsize int64, from, to Address) *Tx {
	// Derive a funding outpoint unique to the arguments so distinct test
	// transactions never double-spend (identical calls still produce the
	// identical transaction).
	var prev TxID
	seed := fmt.Sprintf("%d/%d/%s/%s", fee, vsize, from, to)
	copy(prev[:], seed)
	tx := &Tx{
		VSize: vsize,
		Fee:   fee,
		Time:  time.Unix(1_600_000_000, 0),
		Inputs: []TxIn{{
			PrevOut: OutPoint{TxID: prev, Index: 0},
			Address: from,
			Value:   1000*BTC + fee,
		}},
		Outputs: []TxOut{{Address: to, Value: 1000 * BTC}},
	}
	tx.ComputeID()
	return tx
}

func TestAmountConversions(t *testing.T) {
	if got := (15 * BTC / 10).BTCValue(); got != 1.5 {
		t.Errorf("BTCValue = %v", got)
	}
	if got := Amount(1).BTCValue(); got != 1e-8 {
		t.Errorf("satoshi in BTC = %v", got)
	}
	if (2 * BTC).String() != "2.00000000 BTC" {
		t.Errorf("String = %q", (2 * BTC).String())
	}
}

func TestFeeRateUnits(t *testing.T) {
	// 1 sat/vB == 1e-5 BTC/KB (the recommended minimum in the paper).
	r := SatPerVByte(1)
	if got := r.BTCPerKB(); math.Abs(got-1e-5) > 1e-18 {
		t.Errorf("1 sat/vB = %v BTC/KB, want 1e-5", got)
	}
	if MinRelayFeeRate != 1 {
		t.Errorf("MinRelayFeeRate = %v", MinRelayFeeRate)
	}
}

func TestTxFeeRate(t *testing.T) {
	tx := newTestTx(500, 250, "a", "b")
	if got := tx.FeeRate(); got != 2 {
		t.Errorf("FeeRate = %v, want 2 sat/vB", got)
	}
	zero := &Tx{}
	if zero.FeeRate() != 0 {
		t.Error("zero-vsize fee rate should be 0")
	}
}

func TestTxIDDeterministicAndDistinct(t *testing.T) {
	a := newTestTx(500, 250, "a", "b")
	b := newTestTx(500, 250, "a", "b")
	if a.ID != b.ID {
		t.Error("identical transactions got different IDs")
	}
	c := newTestTx(501, 250, "a", "b")
	if a.ID == c.ID {
		t.Error("different transactions got equal IDs")
	}
	if a.ID.String() == "" || len(a.ID.String()) != 64 {
		t.Errorf("hex ID = %q", a.ID.String())
	}
	if len(a.ID.Short()) != 8 {
		t.Errorf("Short = %q", a.ID.Short())
	}
}

func TestTxValidate(t *testing.T) {
	good := newTestTx(100, 200, "a", "b")
	if err := good.Validate(); err != nil {
		t.Errorf("valid tx rejected: %v", err)
	}

	badVSize := newTestTx(100, 200, "a", "b")
	badVSize.VSize = 0
	if err := badVSize.Validate(); !errors.Is(err, ErrInvalidTx) {
		t.Errorf("zero vsize: %v", err)
	}

	badFee := newTestTx(100, 200, "a", "b")
	badFee.Fee = -1
	if err := badFee.Validate(); !errors.Is(err, ErrInvalidTx) {
		t.Errorf("negative fee: %v", err)
	}

	unbalanced := newTestTx(100, 200, "a", "b")
	unbalanced.Outputs[0].Value += 5
	if err := unbalanced.Validate(); !errors.Is(err, ErrInvalidTx) {
		t.Errorf("unbalanced: %v", err)
	}

	noOut := newTestTx(100, 200, "a", "b")
	noOut.Outputs = nil
	if err := noOut.Validate(); !errors.Is(err, ErrInvalidTx) {
		t.Errorf("no outputs: %v", err)
	}
}

func TestCoinbaseValidate(t *testing.T) {
	cb := &Tx{
		VSize:       100,
		Time:        time.Unix(0, 0),
		Outputs:     []TxOut{{Address: "pool", Value: Subsidy(650000)}},
		CoinbaseTag: "/TestPool/",
	}
	cb.ComputeID()
	if !cb.IsCoinbase() {
		t.Fatal("coinbase not detected")
	}
	if err := cb.Validate(); err != nil {
		t.Errorf("valid coinbase rejected: %v", err)
	}
}

func TestTouches(t *testing.T) {
	tx := newTestTx(10, 100, "alice", "bob")
	if !tx.Touches("alice") || !tx.Touches("bob") {
		t.Error("parties not detected")
	}
	if tx.Touches("carol") {
		t.Error("non-party detected")
	}
	if !tx.TouchesAny(map[Address]bool{"bob": true}) {
		t.Error("TouchesAny missed receiver")
	}
	if tx.TouchesAny(map[Address]bool{"x": true}) {
		t.Error("TouchesAny false positive")
	}
}

func TestInputOutputValue(t *testing.T) {
	tx := newTestTx(25, 100, "a", "b")
	if got := tx.InputValue(); got != 1000*BTC+25 {
		t.Errorf("InputValue = %d", got)
	}
	if got := tx.OutputValue(); got != 1000*BTC {
		t.Errorf("OutputValue = %d", got)
	}
}

func TestSubsidySchedule(t *testing.T) {
	cases := []struct {
		height int64
		want   Amount
	}{
		{0, 50 * BTC},
		{209_999, 50 * BTC},
		{210_000, 25 * BTC},
		{420_000, 125 * BTC / 10},
		{630_000, 625 * BTC / 100}, // 6.25 BTC, the 2020 era in the paper
		{-5, 0},
		{64 * 210_000, 0},
	}
	for _, c := range cases {
		if got := Subsidy(c.height); got != c.want {
			t.Errorf("Subsidy(%d) = %d, want %d", c.height, got, c.want)
		}
	}
}

func TestSubsidyMonotoneNonIncreasing(t *testing.T) {
	if err := quick.Check(func(a, b uint32) bool {
		ha, hb := int64(a%10_000_000), int64(b%10_000_000)
		if ha > hb {
			ha, hb = hb, ha
		}
		return Subsidy(ha) >= Subsidy(hb)
	}, nil); err != nil {
		t.Error(err)
	}
}
