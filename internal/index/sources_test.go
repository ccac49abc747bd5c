package index_test

// Per-source first-seen ledger tests (DESIGN.md §14): attribution keeps one
// arrival time per (transaction, source) alongside the merged min-time view,
// anonymous observations stay out of the per-source view, compaction prunes
// evicted transactions from both views, and the ledger round-trips through
// Snapshot/RestoreIncremental — the state the WAL checkpoints carry.

import (
	"reflect"
	"testing"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/index"
)

func TestSourceLedgerAttributionAndMerge(t *testing.T) {
	ds := buildA(t)
	c, reg := ds.Result.Chain, ds.Registry
	ix := index.NewIncremental(reg)
	b := c.Blocks()[0]
	if _, err := ix.AppendBlock(b); err != nil {
		t.Fatal(err)
	}
	body := b.Body()
	if len(body) < 2 {
		t.Skipf("fixture block too small: %d txs", len(body))
	}
	tx := body[0]
	early := tx.Time.Add(-30 * time.Second)
	late := tx.Time.Add(-10 * time.Second)

	ix.ObserveFirstSeenFrom("s2", map[chain.TxID]time.Time{tx.ID: late})
	ix.ObserveFirstSeenFrom("s1", map[chain.TxID]time.Time{tx.ID: early})

	// Merged view holds the min across sources.
	if got, ok := ix.FirstSeen(tx.ID); !ok || !got.Equal(early) {
		t.Errorf("merged FirstSeen = %v, %t; want %v", got, ok, early)
	}
	// The ledger keeps each source's own time.
	bySrc := ix.SourceFirstSeen(tx.ID)
	if len(bySrc) != 2 || !bySrc["s1"].Equal(early) || !bySrc["s2"].Equal(late) {
		t.Errorf("SourceFirstSeen = %v", bySrc)
	}
	// A later re-observation from the same source does not move its entry;
	// an earlier one does.
	ix.ObserveFirstSeenFrom("s2", map[chain.TxID]time.Time{tx.ID: late.Add(time.Minute)})
	if got := ix.SourceFirstSeen(tx.ID)["s2"]; !got.Equal(late) {
		t.Errorf("s2 entry moved forward to %v", got)
	}
	ix.ObserveFirstSeenFrom("s2", map[chain.TxID]time.Time{tx.ID: early})
	if got := ix.SourceFirstSeen(tx.ID)["s2"]; !got.Equal(early) {
		t.Errorf("s2 entry did not move back to %v: %v", early, got)
	}
	if got, want := ix.Sources(), []string{"s1", "s2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Sources() = %v, want %v", got, want)
	}

	// Anonymous observations merge into the min-time view but never create
	// ledger entries — the v1 ingest path stays ledger-invisible.
	anon := body[1]
	ix.ObserveFirstSeen(map[chain.TxID]time.Time{anon.ID: anon.Time.Add(-time.Minute)})
	ix.ObserveFirstSeenFrom("", map[chain.TxID]time.Time{anon.ID: anon.Time.Add(-2 * time.Minute)})
	if got, ok := ix.FirstSeen(anon.ID); !ok || !got.Equal(anon.Time.Add(-2*time.Minute)) {
		t.Errorf("anonymous merge = %v, %t", got, ok)
	}
	if bySrc := ix.SourceFirstSeen(anon.ID); bySrc != nil {
		t.Errorf("anonymous observation grew a ledger entry: %v", bySrc)
	}
	if got := ix.Sources(); !reflect.DeepEqual(got, []string{"s1", "s2"}) {
		t.Errorf("Sources() after anonymous = %v", got)
	}
}

func TestSourceLedgerSurvivesCompaction(t *testing.T) {
	ds := buildA(t)
	c, reg := ds.Result.Chain, ds.Registry
	const retain = 8
	if c.Len() <= retain+4 {
		t.Skipf("fixture too small: %d blocks", c.Len())
	}
	ix := index.NewIncremental(reg, index.WithRetention(retain))
	for _, b := range c.Blocks() {
		if _, err := ix.AppendBlock(b); err != nil {
			t.Fatal(err)
		}
		seen := make(map[chain.TxID]time.Time, len(b.Body()))
		for _, tx := range b.Body() {
			seen[tx.ID] = tx.Time
		}
		ix.ObserveFirstSeenFrom("s1", seen)
		ix.ObserveFirstSeenFrom("s2", seen)
	}
	// The ledger holds exactly the retained blocks' transactions, each with
	// both sources; evicted transactions are pruned like the merged map.
	retained := make(map[chain.TxID]bool)
	for i := 0; i < ix.Len(); i++ {
		for _, tx := range ix.Record(i).Block.Body() {
			retained[tx.ID] = true
		}
	}
	ledger := ix.SourceSeenTimes()
	for r := 0; r < ledger.Len(); r++ {
		if id, _, _ := ledger.Row(r); !retained[id] {
			t.Fatalf("ledger kept evicted transaction %s", id)
		}
	}
	for id := range retained {
		if bySrc := ix.SourceFirstSeen(id); len(bySrc) != 2 {
			t.Fatalf("retained transaction %s ledger entry = %v", id, bySrc)
		}
	}
	// Source IDs are cumulative: they survive even if every one of a source's
	// observations were compacted away.
	if got := ix.Sources(); !reflect.DeepEqual(got, []string{"s1", "s2"}) {
		t.Errorf("Sources() = %v", got)
	}
}

func TestSourceLedgerRestoreRoundTrip(t *testing.T) {
	ds := buildA(t)
	c, reg := ds.Result.Chain, ds.Registry
	ix := index.NewIncremental(reg)
	for _, b := range c.Blocks()[:4] {
		if _, err := ix.AppendBlock(b); err != nil {
			t.Fatal(err)
		}
		seen := make(map[chain.TxID]time.Time, len(b.Body()))
		for _, tx := range b.Body() {
			seen[tx.ID] = tx.Time.Add(-time.Second)
		}
		ix.ObserveFirstSeenFrom("s1", seen)
	}
	st := ix.Snapshot()
	back, err := index.RestoreIncremental(reg, st)
	if err != nil {
		t.Fatal(err)
	}
	if !back.SourceSeenTimes().Equal(ix.SourceSeenTimes()) {
		t.Error("restored ledger diverged from original")
	}
	if !reflect.DeepEqual(back.Sources(), ix.Sources()) {
		t.Errorf("restored Sources() = %v, want %v", back.Sources(), ix.Sources())
	}
	// The restored index owns its ledger: observing through it must not
	// mutate the snapshot the original handed out.
	b := c.Blocks()[0]
	tx := b.Body()[0]
	back.ObserveFirstSeenFrom("s9", map[chain.TxID]time.Time{tx.ID: tx.Time})
	if _, ok := ix.SourceFirstSeen(tx.ID)["s9"]; ok {
		t.Error("restore aliased the original ledger")
	}
}
