package accel

import (
	"testing"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/stats"
)

var baseTime = time.Unix(1_606_000_000, 0)

func mkTx(fee chain.Amount, vsize int64, nonce byte) *chain.Tx {
	tx := &chain.Tx{
		VSize:   vsize,
		Fee:     fee,
		Time:    baseTime,
		Inputs:  []chain.TxIn{{PrevOut: chain.OutPoint{TxID: chain.TxID{nonce}}, Address: "a", Value: chain.BTC + fee}},
		Outputs: []chain.TxOut{{Address: "b", Value: chain.BTC}},
	}
	tx.ComputeID()
	return tx
}

func TestQuoteClearsMarket(t *testing.T) {
	s := NewService("BTC.com", stats.NewRNG(1))
	top := chain.SatPerVByte(150)
	for i := 0; i < 2000; i++ {
		tx := mkTx(chain.Amount(100+i), 250, byte(i))
		q := s.Quote(tx, top)
		total := float64(tx.Fee+q) / float64(tx.VSize)
		if total <= float64(top) {
			t.Fatalf("quote %d leaves total rate %.2f below market top %v", q, total, top)
		}
	}
}

func TestQuoteZeroFeeTx(t *testing.T) {
	s := NewService("BTC.com", stats.NewRNG(2))
	tx := mkTx(0, 250, 1)
	q := s.Quote(tx, 100)
	if q < 10_000 {
		t.Errorf("zero-fee quote = %d, want at least floor", q)
	}
}

func TestQuoteMultiplierShape(t *testing.T) {
	s := NewService("BTC.com", stats.NewRNG(3))
	// Public fee high enough that the market-clearing floor does not bind.
	var ratios []float64
	for i := 0; i < 30_000; i++ {
		tx := mkTx(25_000, 250, byte(i)) // 100 sat/vB
		q := s.Quote(tx, 1)
		ratios = append(ratios, float64(q)/float64(tx.Fee))
	}
	med := stats.PercentileUnsorted(ratios, 50)
	// Appendix G: median multiple ≈ 117.
	if med < 80 || med > 170 {
		t.Errorf("median multiplier = %v, want ~117", med)
	}
	p25 := stats.PercentileUnsorted(ratios, 25)
	p75 := stats.PercentileUnsorted(ratios, 75)
	if p25 >= med || p75 <= med {
		t.Error("quartiles inconsistent")
	}
	mean := stats.Mean(ratios)
	if mean < med {
		t.Errorf("mean %v below median %v; distribution should skew right", mean, med)
	}
}

func TestAccelerateAndOracle(t *testing.T) {
	s := NewService("BTC.com", stats.NewRNG(4))
	tx := mkTx(500, 250, 1)
	other := mkTx(600, 250, 2)

	r := s.Accelerate(tx, 70_000, baseTime)
	if r.TxID != tx.ID || r.DarkFee != 70_000 || r.PublicFee != 500 {
		t.Errorf("record = %+v", r)
	}
	if !s.IsAccelerated(tx.ID) {
		t.Error("oracle missed acceleration")
	}
	if s.IsAccelerated(other.ID) {
		t.Error("oracle false positive")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	got, ok := s.records[tx.ID]
	if !ok || got != r {
		t.Error("record lookup failed")
	}
	if _, ok := s.records[other.ID]; ok {
		t.Error("record false positive")
	}

	// Idempotent re-acceleration.
	again := s.Accelerate(tx, 999_999, baseTime.Add(time.Hour))
	if again != r {
		t.Error("re-acceleration overwrote original record")
	}
	if s.Len() != 1 || len(s.Records()) != 1 {
		t.Error("duplicate record kept")
	}
}

func TestRecordsOrder(t *testing.T) {
	s := NewService("ViaBTC", stats.NewRNG(5))
	var want []chain.TxID
	for i := 0; i < 10; i++ {
		tx := mkTx(chain.Amount(1000+i), 250, byte(i))
		s.Accelerate(tx, 50_000, baseTime.Add(time.Duration(i)*time.Minute))
		want = append(want, tx.ID)
	}
	got := s.Records()
	if len(got) != 10 {
		t.Fatalf("records = %d", len(got))
	}
	for i := range got {
		if got[i].TxID != want[i] {
			t.Fatal("records out of purchase order")
		}
	}
	if s.Pool() != "ViaBTC" {
		t.Error("Pool accessor")
	}
}
