package core

import (
	"strings"
	"testing"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/mempool"
)

// TestViolationPairsExcludesZeroFirstSeen pins the satellite fix: a zero
// FirstSeen means "never seen in the mempool", not the Unix epoch, so the
// transaction must be excluded from pair comparison (with a counter) instead
// of winning every arrival-order comparison.
func TestViolationPairsExcludesZeroFirstSeen(t *testing.T) {
	txI := mkTx(50, 1) // unseen: zero FirstSeen
	txJ := mkTx(10, 2)
	c := chain.New()
	c.Append(blockWith(630_000, "/P/", txJ))
	c.Append(blockWith(630_001, "/P/", txI))
	snap := snapOf(baseTime,
		mempool.SnapshotTx{Tx: txI}, // FirstSeen deliberately zero
		mempool.SnapshotTx{Tx: txJ, FirstSeen: baseTime.Add(30 * time.Second)},
	)
	got := ViolationPairs(snap, c, ViolationOptions{})
	// Before the fix, the zero time ranked txI at the epoch — earlier than
	// everything — and the pair read as a norm violation. Now the unseen
	// transaction is excluded entirely.
	if got.ComparablePairs != 0 || got.ViolatingPairs != 0 {
		t.Fatalf("unseen tx entered pair comparison: %+v", got)
	}
	if got.UnseenExcluded != 1 {
		t.Fatalf("UnseenExcluded = %d, want 1", got.UnseenExcluded)
	}
	if got.Confirmed != 1 {
		t.Fatalf("Confirmed = %d, want 1 (only the seen tx)", got.Confirmed)
	}
	if cov := (Coverage{Used: got.Confirmed, Excluded: got.UnseenExcluded}).Fraction(); cov != 0.5 {
		t.Fatalf("coverage = %v, want 0.5", cov)
	}
}

func TestCoverageFractionAndString(t *testing.T) {
	var c Coverage
	if c.Fraction() != 1 {
		t.Errorf("empty coverage fraction = %v, want 1", c.Fraction())
	}
	c = Coverage{Used: 3, Excluded: 1}
	if c.Fraction() != 0.75 {
		t.Errorf("fraction = %v, want 0.75", c.Fraction())
	}
	if s := c.String(); !strings.Contains(s, "75.0%") || !strings.Contains(s, "3/4") {
		t.Errorf("String() = %q", s)
	}
	c.Add(Coverage{Used: 1, Excluded: 3})
	if c.Used != 4 || c.Excluded != 4 {
		t.Errorf("Add: %+v", c)
	}
}

func TestSeenCoverage(t *testing.T) {
	txA := mkTx(50, 1)
	txB := mkTx(20, 2)
	txC := mkTx(10, 3)
	c := chain.New()
	c.Append(blockWith(630_000, "/P/", txA, txB))
	c.Append(blockWith(630_001, "/P/", txC))
	seen := map[chain.TxID]SeenRecord{
		txA.ID: {TipHeight: 629_999},
		txC.ID: {TipHeight: 630_000},
	}
	cov := SeenCoverage(c, seen)
	// Coinbases never appear in seen maps and must not count against
	// coverage; of the 3 body transactions, 2 were observed.
	if cov.Used != 2 || cov.Excluded != 1 {
		t.Fatalf("coverage = %+v, want Used=2 Excluded=1", cov)
	}
	full := SeenCoverage(c, map[chain.TxID]SeenRecord{
		txA.ID: {}, txB.ID: {}, txC.ID: {},
	})
	if full.Fraction() != 1 {
		t.Fatalf("complete seen map fraction = %v, want 1", full.Fraction())
	}
}
