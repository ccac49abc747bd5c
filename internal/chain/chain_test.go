package chain

import (
	"errors"
	"testing"
	"time"
)

func TestChainAppendAndLookup(t *testing.T) {
	c := New()
	tx1 := newTestTx(100, 200, "a", "b")
	b1 := buildBlock(500, "/P1/", tx1)
	if err := c.Append(b1); err != nil {
		t.Fatal(err)
	}
	tx2 := newTestTx(200, 200, "c", "d")
	b2 := buildBlock(501, "/P2/", tx2)
	if err := c.Append(b2); err != nil {
		t.Fatal(err)
	}

	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.Tip() != b2 {
		t.Error("Tip mismatch")
	}
	if c.BlockAt(500) != b1 || c.BlockAt(501) != b2 {
		t.Error("BlockAt mismatch")
	}
	if c.BlockAt(499) != nil || c.BlockAt(502) != nil {
		t.Error("BlockAt out-of-range should be nil")
	}

	loc, ok := c.Locate(tx1.ID)
	if !ok || loc.Height != 500 || loc.Index != 1 {
		t.Errorf("Locate = %+v ok=%v", loc, ok)
	}
	if !c.Contains(tx2.ID) {
		t.Error("Contains missed confirmed tx")
	}
	if c.Contains(TxID{9}) {
		t.Error("Contains false positive")
	}
	if got := c.TxCount(); got != 2 {
		t.Errorf("TxCount = %d", got)
	}
}

func TestChainRejectsGapAndDuplicates(t *testing.T) {
	c := New()
	if err := c.Append(buildBlock(10, "/P/")); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(buildBlock(12, "/P/")); !errors.Is(err, ErrChainGap) {
		t.Errorf("gap accepted: %v", err)
	}
	tx := newTestTx(5, 100, "a", "b")
	if err := c.Append(buildBlock(11, "/P/", tx)); err != nil {
		t.Fatal(err)
	}
	// Same tx in a later block must be rejected.
	if err := c.Append(buildBlock(12, "/P/", tx)); err == nil {
		t.Error("double-confirmed tx accepted")
	}
	// Invalid block rejected before indexing.
	bad := buildBlock(12, "/P/")
	bad.Txs = nil
	if err := c.Append(bad); !errors.Is(err, ErrInvalidBlock) {
		t.Errorf("invalid block: %v", err)
	}
}

func TestChainZeroValueUsable(t *testing.T) {
	var c Chain
	if err := c.Append(buildBlock(1, "/P/")); err != nil {
		t.Fatalf("zero-value chain append: %v", err)
	}
	if c.Len() != 1 {
		t.Error("append on zero value failed")
	}
}

func TestEmptyBlockCount(t *testing.T) {
	c := New()
	c.Append(buildBlock(1, "/P/"))
	c.Append(buildBlock(2, "/P/", newTestTx(1, 100, "a", "b")))
	c.Append(buildBlock(3, "/P/"))
	if got := c.EmptyBlockCount(); got != 2 {
		t.Errorf("EmptyBlockCount = %d", got)
	}
}

func TestSpanAndSlice(t *testing.T) {
	c := New()
	for h := int64(0); h < 10; h++ {
		if err := c.Append(buildBlock(h, "/P/", newTestTx(Amount(h+1), 100, "a", "b"))); err != nil {
			t.Fatal(err)
		}
	}
	first, last, ok := c.Span()
	if !ok || !last.After(first) {
		t.Fatalf("Span = %v %v %v", first, last, ok)
	}
	_, _, ok = New().Span()
	if ok {
		t.Error("empty chain span ok")
	}

	from := time.Unix(1_600_000_000+2*600, 0)
	to := time.Unix(1_600_000_000+5*600, 0)
	sub := c.Slice(from, to)
	if sub.Len() != 3 {
		t.Fatalf("Slice len = %d, want 3", sub.Len())
	}
	if sub.Blocks()[0].Height != 2 || sub.Tip().Height != 4 {
		t.Errorf("slice range = [%d, %d]", sub.Blocks()[0].Height, sub.Tip().Height)
	}
	// The slice indexes its members.
	tx := sub.Blocks()[0].Body()[0]
	if !sub.Contains(tx.ID) {
		t.Error("slice lost index")
	}
}

// TestAppendEdgeCases pins the failure semantics streaming ingest relies
// on: every malformed append is rejected with a well-defined error and
// leaves the chain exactly as it was (same length, same tip, no partial
// indexing of the rejected block's transactions).
func TestAppendEdgeCases(t *testing.T) {
	c := New()
	if err := c.Append(buildBlock(100, "/P/", newTestTx(10, 100, "a", "b"))); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(buildBlock(101, "/P/", newTestTx(20, 100, "c", "d"))); err != nil {
		t.Fatal(err)
	}
	unchanged := func(t *testing.T, label string) {
		t.Helper()
		if c.Len() != 2 || c.Tip().Height != 101 {
			t.Fatalf("%s mutated the chain: len=%d tip=%d", label, c.Len(), c.Tip().Height)
		}
	}

	// Duplicate height: re-appending the current tip height is a gap error,
	// not a silent overwrite.
	dupTx := newTestTx(30, 100, "e", "f")
	if err := c.Append(buildBlock(101, "/P/", dupTx)); !errors.Is(err, ErrChainGap) {
		t.Errorf("duplicate height = %v, want ErrChainGap", err)
	}
	unchanged(t, "duplicate height")
	if c.Contains(dupTx.ID) {
		t.Error("rejected block's tx leaked into the index")
	}

	// Height regression: appending below the tip is the same gap error.
	if err := c.Append(buildBlock(99, "/P/", newTestTx(40, 100, "g", "h"))); !errors.Is(err, ErrChainGap) {
		t.Errorf("height regression = %v, want ErrChainGap", err)
	}
	unchanged(t, "height regression")

	// Out-of-order append: skipping ahead leaves a hole and is rejected; the
	// block becomes appendable once the gap is filled.
	ahead := buildBlock(103, "/P/", newTestTx(50, 100, "i", "j"))
	if err := c.Append(ahead); !errors.Is(err, ErrChainGap) {
		t.Errorf("out-of-order append = %v, want ErrChainGap", err)
	}
	unchanged(t, "out-of-order append")
	if err := c.Append(buildBlock(102, "/P/")); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(ahead); err != nil {
		t.Errorf("retry after gap fill rejected: %v", err)
	}
	if c.Len() != 4 || c.Tip().Height != 103 {
		t.Errorf("after gap fill: len=%d tip=%d", c.Len(), c.Tip().Height)
	}
}

// TestAppendDegradedEdgeCases proves the degraded path keeps the structural
// invariants: height contiguity and the coinbase-at-0 rule still hold even
// though value validation is waived.
func TestAppendDegradedEdgeCases(t *testing.T) {
	c := New()
	// Degraded blocks waive value validation (coinbase overpays), but append.
	over := buildBlock(7, "/P/", newTestTx(10, 100, "a", "b"))
	over.Txs[0].Outputs[0].Value = Subsidy(7) + 1_000_000
	if err := c.AppendDegraded(over); err != nil {
		t.Fatalf("degraded overpaying block rejected: %v", err)
	}
	// Missing coinbase is still fatal.
	noCB := buildBlock(8, "/P/", newTestTx(20, 100, "c", "d"))
	noCB.Txs = noCB.Txs[1:]
	if err := c.AppendDegraded(noCB); err == nil {
		t.Error("degraded block without coinbase accepted")
	}
	// Height gaps are still gaps.
	if err := c.AppendDegraded(buildBlock(10, "/P/")); !errors.Is(err, ErrChainGap) {
		t.Errorf("degraded gap = %v, want ErrChainGap", err)
	}
	// Duplicate confirmations are still rejected.
	tx := over.Txs[1]
	if err := c.AppendDegraded(buildBlock(8, "/P/", tx)); err == nil {
		t.Error("degraded duplicate confirmation accepted")
	}
	if c.Len() != 1 {
		t.Errorf("len = %d after rejections, want 1", c.Len())
	}
}

func TestSuffix(t *testing.T) {
	c := New()
	for h := int64(0); h < 10; h++ {
		if err := c.Append(buildBlock(h, "/P/", newTestTx(Amount(h+1), 100, "a", "b"))); err != nil {
			t.Fatal(err)
		}
	}
	sub := c.Suffix(3)
	if sub.Len() != 3 || sub.Blocks()[0].Height != 7 || sub.Tip().Height != 9 {
		t.Fatalf("Suffix(3) = len %d range [%d, %d]", sub.Len(), sub.Blocks()[0].Height, sub.Tip().Height)
	}
	// The suffix indexes its members and only its members.
	kept := sub.Blocks()[0].Body()[0]
	dropped := c.Blocks()[0].Body()[0]
	if !sub.Contains(kept.ID) || sub.Contains(dropped.ID) {
		t.Error("suffix index wrong")
	}
	// n <= 0 and oversized n mean "everything".
	if c.Suffix(0).Len() != 10 || c.Suffix(-1).Len() != 10 || c.Suffix(99).Len() != 10 {
		t.Error("Suffix clamp wrong")
	}
	// A suffix supports further appends independently.
	if err := sub.Append(buildBlock(10, "/P/")); err != nil {
		t.Errorf("append on suffix: %v", err)
	}
	if c.Len() != 10 {
		t.Error("append on suffix leaked into parent")
	}
}

func TestConfirmDelayBlocks(t *testing.T) {
	c := New()
	tx := newTestTx(9, 100, "a", "b")
	c.Append(buildBlock(100, "/P/"))
	c.Append(buildBlock(101, "/P/", tx))

	if d, ok := c.ConfirmDelayBlocks(tx.ID, 100); !ok || d != 1 {
		t.Errorf("delay = %d ok=%v, want 1", d, ok)
	}
	if d, ok := c.ConfirmDelayBlocks(tx.ID, 95); !ok || d != 6 {
		t.Errorf("delay = %d ok=%v, want 6", d, ok)
	}
	// Seen "after" inclusion clamps to 1 (clock skew guard).
	if d, ok := c.ConfirmDelayBlocks(tx.ID, 200); !ok || d != 1 {
		t.Errorf("delay = %d ok=%v, want clamped 1", d, ok)
	}
	if _, ok := c.ConfirmDelayBlocks(TxID{1}, 100); ok {
		t.Error("unconfirmed tx reported delay")
	}
}

func TestDoubleSpendRejected(t *testing.T) {
	c := New()
	a := newTestTx(100, 200, "a", "b")
	if err := c.Append(buildBlock(0, "/P/", a)); err != nil {
		t.Fatal(err)
	}
	// A different tx spending the same outpoint.
	b := newTestTx(200, 200, "a", "b2")
	b.Inputs[0].PrevOut = a.Inputs[0].PrevOut
	b.ComputeID()
	if err := c.Append(buildBlock(1, "/P/", b)); !errors.Is(err, ErrDoubleSpend) {
		t.Errorf("cross-block double spend: %v", err)
	}
	// Within one block.
	c2 := New()
	d := newTestTx(300, 200, "a", "b3")
	d.Inputs[0].PrevOut = a.Inputs[0].PrevOut
	d.ComputeID()
	blk := buildBlock(0, "/P/", a, d)
	if err := c2.Append(blk); !errors.Is(err, ErrDoubleSpend) {
		t.Errorf("in-block double spend: %v", err)
	}
	// The spent index records the spender.
	if spender, ok := c.spent[a.Inputs[0].PrevOut]; !ok || spender != a.ID {
		t.Error("spent index wrong")
	}
	if _, ok := c.spent[OutPoint{Index: 99}]; ok {
		t.Error("spent index false positive")
	}
	if !c.ConflictsChain(b) {
		t.Error("ConflictsChain missed")
	}
	if c.ConflictsChain(newTestTx(1, 100, "x", "y")) {
		t.Error("ConflictsChain false positive")
	}
}
