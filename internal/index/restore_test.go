package index_test

import (
	"reflect"
	"testing"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/index"
)

// feedIncremental grows an incremental index over the fixture chain, merging
// each block's body arrival times just before the block lands — the shape a
// live mempool feed produces.
func feedIncremental(t *testing.T, ix *index.BlockIndex, blocks []*chain.Block) {
	t.Helper()
	for _, b := range blocks {
		seen := make(map[chain.TxID]time.Time)
		for _, tx := range b.Body() {
			seen[tx.ID] = tx.Time
		}
		ix.ObserveFirstSeen(seen)
		if _, err := ix.AppendBlock(b); err != nil {
			t.Fatalf("AppendBlock(%d): %v", b.Height, err)
		}
	}
}

// requireEqualIndexes asserts two indexes expose identical state through
// every public accessor a restore must preserve.
func requireEqualIndexes(t *testing.T, got, want *index.BlockIndex) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len %d, want %d", got.Len(), want.Len())
	}
	if got.Ingested() != want.Ingested() {
		t.Fatalf("Ingested %d, want %d", got.Ingested(), want.Ingested())
	}
	if got.Dropped() != want.Dropped() {
		t.Fatalf("Dropped %d, want %d", got.Dropped(), want.Dropped())
	}
	if got.Retention() != want.Retention() {
		t.Fatalf("Retention %d, want %d", got.Retention(), want.Retention())
	}
	if !reflect.DeepEqual(got.Shares(), want.Shares()) {
		t.Fatalf("Shares diverged:\n got %+v\nwant %+v", got.Shares(), want.Shares())
	}
	for i := 0; i < want.Len(); i++ {
		g, w := got.Record(i), want.Record(i)
		if g.Block.Height != w.Block.Height || g.Block.Hash != w.Block.Hash {
			t.Fatalf("record %d: block %d/%x, want %d/%x", i, g.Block.Height, g.Block.Hash, w.Block.Height, w.Block.Hash)
		}
		if g.Pool != w.Pool || g.PPE != w.PPE || g.PPEValid != w.PPEValid {
			t.Fatalf("record %d: derived fields diverged: %+v vs %+v", i, g, w)
		}
	}
	if !got.SourceSeenTimes().Equal(want.SourceSeenTimes()) {
		t.Fatalf("arrival ledgers diverged: %d vs %d rows", got.SourceSeenTimes().Len(), want.SourceSeenTimes().Len())
	}
	if !reflect.DeepEqual(got.WalletOwners(), want.WalletOwners()) {
		t.Fatalf("wallet owners diverged: %v vs %v", got.WalletOwners(), want.WalletOwners())
	}
	if !reflect.DeepEqual(got.RewardAddresses(), want.RewardAddresses()) {
		t.Fatal("reward-address maps diverged")
	}
	if !reflect.DeepEqual(got.SelfInterestSets(), want.SelfInterestSets()) {
		t.Fatal("self-interest sets diverged")
	}
}

// TestSnapshotRestoreRoundTrip pins the checkpoint contract: an index
// restored from Snapshot() is indistinguishable from the original through
// every accessor, and continues to evolve identically when both are fed the
// same suffix — for unbounded and retained indexes alike.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	ds := buildA(t)
	c, reg := ds.Result.Chain, ds.Registry
	blocks := c.Blocks()
	if len(blocks) < 12 {
		t.Skipf("fixture too small: %d blocks", len(blocks))
	}
	cut := len(blocks) - 4

	for _, tc := range []struct {
		name string
		opts []index.Option
	}{
		{"unbounded", nil},
		{"retained", []index.Option{index.WithRetention(6)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig := index.NewIncremental(reg, tc.opts...)
			feedIncremental(t, orig, blocks[:cut])

			restored, err := index.RestoreIncremental(reg, orig.Snapshot(), tc.opts...)
			if err != nil {
				t.Fatalf("RestoreIncremental: %v", err)
			}
			requireEqualIndexes(t, restored, orig)

			// The restored index must not alias the snapshot source: growing
			// it leaves the original untouched.
			before := orig.Len()
			feedIncremental(t, restored, blocks[cut:])
			if orig.Len() != before {
				t.Fatalf("growing the restored index mutated the original (len %d -> %d)", before, orig.Len())
			}

			// ...and both evolve identically under the same suffix.
			feedIncremental(t, orig, blocks[cut:])
			requireEqualIndexes(t, restored, orig)
		})
	}
}

// TestRestoreRetainedHorizonChain pins the documented restriction: restoring
// a retained index rebuilds the chain from the window's first height, not
// genesis, so full-chain accessors see the retained horizon only.
func TestRestoreRetainedHorizonChain(t *testing.T) {
	ds := buildA(t)
	c, reg := ds.Result.Chain, ds.Registry
	const retain = 5
	if c.Len() <= retain+2 {
		t.Skipf("fixture too small: %d blocks", c.Len())
	}
	orig := index.NewIncremental(reg, index.WithRetention(retain))
	feedIncremental(t, orig, c.Blocks())

	restored, err := index.RestoreIncremental(reg, orig.Snapshot(), index.WithRetention(retain))
	if err != nil {
		t.Fatalf("RestoreIncremental: %v", err)
	}
	if got := restored.Chain().Len(); got != retain {
		t.Fatalf("restored chain holds %d blocks, want the %d retained", got, retain)
	}
	wantFirst := c.Blocks()[c.Len()-retain].Height
	if got := restored.Chain().Blocks()[0].Height; got != wantFirst {
		t.Fatalf("restored chain starts at height %d, want %d", got, wantFirst)
	}
	// The cumulative denominator still spans the full feed.
	if got, want := restored.Ingested(), int64(c.Len()); got != want {
		t.Fatalf("Ingested %d, want %d", got, want)
	}
}

// TestRestoreRejectsBadBlocks ensures a gap in the checkpointed window
// surfaces as an error instead of a silently shorter index.
func TestRestoreRejectsBadBlocks(t *testing.T) {
	ds := buildA(t)
	c, reg := ds.Result.Chain, ds.Registry
	if c.Len() < 4 {
		t.Skipf("fixture too small: %d blocks", c.Len())
	}
	orig := index.NewIncremental(reg)
	feedIncremental(t, orig, c.Blocks())
	st := orig.Snapshot()
	st.Blocks = append([]*chain.Block{}, st.Blocks...)
	st.Blocks[1] = st.Blocks[2] // introduce a height gap
	if _, err := index.RestoreIncremental(reg, st); err == nil {
		t.Fatal("RestoreIncremental accepted a gapped block window")
	}
}
