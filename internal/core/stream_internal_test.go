package core

import (
	"testing"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/index"
)

// rec builds a minimal coinbase-only record at the height — enough to drive
// the ring without a full dataset.
func recAt(t *testing.T, h int64) *index.BlockRecord {
	t.Helper()
	b := &chain.Block{Height: h}
	cb := &chain.Tx{VSize: 100, CoinbaseTag: "/test/", Time: time.Unix(h, 0)}
	cb.ComputeID()
	b.Txs = []*chain.Tx{cb}
	pos := index.AnalyzeBlock(b)
	r := &index.BlockRecord{Block: b, Pool: "test", Positions: pos}
	r.PPE, r.PPEValid = pos.PPE()
	return r
}

// TestWindowAuditorRingDoesNotGrow pins the eviction bound: a bounded window
// fed far more blocks than its capacity keeps exactly max records in a
// backing array that stays within 2×max — a plain reslice
// (recs = recs[1:]) would pin an array that grew with every observation.
func TestWindowAuditorRingDoesNotGrow(t *testing.T) {
	const max = 8
	w := NewWindowAuditor(max)
	for h := int64(1); h <= 10*max; h++ {
		if err := w.ObserveBlock(recAt(t, h)); err != nil {
			t.Fatalf("ObserveBlock(%d): %v", h, err)
		}
	}
	if got := len(w.recs); got != max {
		t.Fatalf("window length %d, want %d", got, max)
	}
	if got := cap(w.recs); got > 2*max {
		t.Fatalf("window capacity %d grew past the bound (max %d)", got, max)
	}
	lo, hi := w.recs[0].Block.Height, w.recs[max-1].Block.Height
	if lo != 10*max-max+1 || hi != 10*max {
		t.Fatalf("heights [%d, %d], want [%d, %d]", lo, hi, 10*max-max+1, 10*max)
	}
	// Stream order survives sliding.
	for i := 1; i < w.Len(); i++ {
		if w.recs[i].Block.Height != w.recs[i-1].Block.Height+1 {
			t.Fatalf("window out of order at %d: %d after %d", i, w.recs[i].Block.Height, w.recs[i-1].Block.Height)
		}
	}
}
