package index_test

import (
	"bytes"
	"io"
	"testing"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/core"
	"chainaudit/internal/index"
)

// TestRetentionBoundsAndEquivalence pins the retention contract: with a
// horizon of N the index never retains more than N records, while the
// aggregates audits read — pool shares, self-interest sets, and the
// windowed verdicts over any window ≤ N — are identical to an unbounded
// index fed the same stream.
func TestRetentionBoundsAndEquivalence(t *testing.T) {
	ds := buildA(t)
	c, reg := ds.Result.Chain, ds.Registry
	const retain = 16
	if c.Len() <= retain+4 {
		t.Skipf("fixture too small: %d blocks", c.Len())
	}

	bounded := index.NewIncremental(reg, index.WithRetention(retain))
	unbounded := index.NewIncremental(reg)
	for _, b := range c.Blocks() {
		if _, err := bounded.AppendBlock(b); err != nil {
			t.Fatalf("bounded AppendBlock(%d): %v", b.Height, err)
		}
		if _, err := unbounded.AppendBlock(b); err != nil {
			t.Fatalf("unbounded AppendBlock(%d): %v", b.Height, err)
		}
		if bounded.Len() > retain {
			t.Fatalf("height %d: retained %d records, horizon %d", b.Height, bounded.Len(), retain)
		}
	}
	if bounded.Len() != retain {
		t.Fatalf("retained %d records, want %d", bounded.Len(), retain)
	}
	if got, want := bounded.Ingested(), int64(c.Len()); got != want {
		t.Fatalf("ingested %d, want %d", got, want)
	}
	if got, want := bounded.Dropped(), c.Len()-retain; got != want {
		t.Fatalf("dropped %d, want %d", got, want)
	}
	if unbounded.Dropped() != 0 || unbounded.Len() != c.Len() {
		t.Fatalf("unbounded index compacted: len %d dropped %d", unbounded.Len(), unbounded.Dropped())
	}

	// Shares keep the full-history denominator: element-identical to the
	// unbounded index, which in turn matches the batch build.
	sb, su := bounded.Shares(), unbounded.Shares()
	if len(sb) != len(su) {
		t.Fatalf("share counts diverged: %d vs %d", len(sb), len(su))
	}
	for i := range sb {
		if sb[i] != su[i] {
			t.Fatalf("share %d diverged after compaction: %+v vs %+v", i, sb[i], su[i])
		}
	}

	// The retained records are exactly the chain's last retain blocks.
	for i := 0; i < retain; i++ {
		want := c.Blocks()[c.Len()-retain+i]
		if bounded.Record(i).Block != want {
			t.Fatalf("retained record %d is height %d, want %d", i, bounded.Record(i).Block.Height, want.Height)
		}
	}

	// Windowed audits over any window ≤ retain are byte-identical between
	// the bounded and unbounded indexes and to the batch audit of the chain
	// suffix.
	render := func(f func(io.Writer) error) string {
		var b bytes.Buffer
		if err := f(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	pools := unbounded.TopPoolsByShare(core.DefaultMinShare)
	for _, n := range []int{1, 7, retain} {
		batch := &core.Auditor{Chain: c.Suffix(n), Registry: reg}
		want := render(func(w io.Writer) error { return core.WritePPESection(w, batch.AuditPPE(core.AuditOptions{})) })
		winB := core.NewIndexedAuditor(bounded).Last(n)
		for name, win := range map[string]*core.Auditor{"bounded": winB, "unbounded": core.NewIndexedAuditor(unbounded).Last(n)} {
			got := render(func(w io.Writer) error { return core.WritePPESection(w, win.AuditPPE(core.AuditOptions{})) })
			if got != want {
				t.Errorf("window %d (%s index): PPE diverged from batch suffix", n, name)
			}
		}
		wantLow := render(func(w io.Writer) error { return core.WriteLowFeeSection(w, batch.AuditLowFee(core.AuditOptions{})) })
		gotLow := render(func(w io.Writer) error { return core.WriteLowFeeSection(w, winB.AuditLowFee(core.AuditOptions{})) })
		if gotLow != wantLow {
			t.Errorf("window %d: low-fee section diverged after compaction", n)
		}
		for _, pool := range pools {
			wantDark := render(func(w io.Writer) error {
				return core.WriteDarkFeeSection(w, pool, core.DefaultSPPE, batch.AuditDarkFee(pool, core.AuditOptions{}))
			})
			gotDark := render(func(w io.Writer) error {
				return core.WriteDarkFeeSection(w, pool, core.DefaultSPPE, winB.AuditDarkFee(pool, core.AuditOptions{}))
			})
			if gotDark != wantDark {
				t.Errorf("window %d pool %s: dark-fee section diverged after compaction", n, pool)
			}
		}
	}

	// Self-interest attribution folded before compaction survives it.
	selfB, selfU := bounded.SelfInterestSets(), unbounded.SelfInterestSets()
	if len(selfB) != len(selfU) {
		t.Fatalf("self-interest pool counts diverged: %d vs %d", len(selfB), len(selfU))
	}
	for pool, setU := range selfU {
		setB := selfB[pool]
		if len(setB) != len(setU) {
			t.Fatalf("pool %s: self-interest set sizes diverged: %d vs %d", pool, len(setB), len(setU))
		}
		for id := range setU {
			if !setB[id] {
				t.Fatalf("pool %s: tx %s lost from self-interest set by compaction", pool, id.Short())
			}
		}
	}
}

// TestRetentionPrunesFirstSeen pins the first-seen side of compaction: the
// arrival times of transactions confirmed in compacted-away blocks are
// dropped, while entries inside the horizon (and still-pending entries)
// survive.
func TestRetentionPrunesFirstSeen(t *testing.T) {
	ds := buildA(t)
	c, reg := ds.Result.Chain, ds.Registry
	const retain = 8
	if c.Len() <= retain+2 {
		t.Skipf("fixture too small: %d blocks", c.Len())
	}

	ix := index.NewIncremental(reg, index.WithRetention(retain))
	blocks := c.Blocks()
	for _, b := range blocks {
		// Observe every body transaction just before its block lands, the
		// shape a live mempool feed produces.
		seen := make(map[chain.TxID]time.Time)
		for _, tx := range b.Body() {
			seen[tx.ID] = tx.Time
		}
		ix.ObserveFirstSeen(seen)
		if _, err := ix.AppendBlock(b); err != nil {
			t.Fatalf("AppendBlock(%d): %v", b.Height, err)
		}
	}

	// A transaction confirmed before the horizon is pruned...
	for _, b := range blocks[:c.Len()-retain] {
		for _, tx := range b.Body() {
			if _, ok := ix.FirstSeen(tx.ID); ok {
				t.Fatalf("first-seen entry for tx %s (height %d, outside horizon) survived compaction", tx.ID.Short(), b.Height)
			}
		}
	}
	// ...while one confirmed inside the horizon keeps its time.
	kept := 0
	for _, b := range blocks[c.Len()-retain:] {
		for _, tx := range b.Body() {
			got, ok := ix.FirstSeen(tx.ID)
			if !ok {
				t.Fatalf("first-seen entry for tx %s (height %d, inside horizon) was pruned", tx.ID.Short(), b.Height)
			}
			if !got.Equal(tx.Time) {
				t.Fatalf("tx %s first-seen %v, want %v", tx.ID.Short(), got, tx.Time)
			}
			kept++
		}
	}
	if kept == 0 {
		t.Fatal("no transactions inside the horizon — fixture degenerate")
	}
}
