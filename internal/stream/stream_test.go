package stream

import (
	"testing"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/index"
)

var base = time.Unix(1_600_000_000, 0)

// mkBlock builds a block at height h with one body transaction.
func mkBlock(h int64) *chain.Block {
	tx := &chain.Tx{
		VSize:   200,
		Fee:     1000,
		Time:    base.Add(time.Duration(h) * time.Minute),
		Inputs:  []chain.TxIn{{PrevOut: chain.OutPoint{TxID: chain.TxID{byte(h), 0xAB}}, Address: "sender", Value: chain.BTC + 1000}},
		Outputs: []chain.TxOut{{Address: "receiver", Value: chain.BTC}},
	}
	tx.ComputeID()
	cb := &chain.Tx{VSize: 120, Time: tx.Time, Outputs: []chain.TxOut{{Address: "pool", Value: chain.Subsidy(h) + 1000}}, CoinbaseTag: "/F2Pool/"}
	cb.ComputeID()
	b := &chain.Block{Height: h, Time: tx.Time.Add(time.Second), Txs: []*chain.Tx{cb, tx}}
	b.ComputeHash([32]byte{})
	return b
}

func snapOf(b *chain.Block, at time.Time) Snapshot {
	tx := b.Txs[1]
	return Snapshot{Time: b.Time, TipHeight: b.Height - 1, Count: 1, Seen: []Seen{{ID: tx.ID, At: at}}}
}

func clock() time.Time { return base.Add(time.Hour) }

func TestApplyFailingBlockSkipsSnapshots(t *testing.T) {
	s := New("t", NewIndex(0), clock)
	b0, b1, b2 := mkBlock(0), mkBlock(1), mkBlock(2)
	p, err := s.Apply(&Batch{Blocks: []*chain.Block{b0, b2, b1}, Snapshots: []Snapshot{snapOf(b1, b1.Time)}})
	if err == nil {
		t.Fatal("gap accepted")
	}
	if p.Appended != 1 || p.Snapshots != 0 || p.IndexLen != 1 || p.Height == nil || *p.Height != 0 {
		t.Fatalf("progress after a failing block = %+v", p)
	}
	if _, ok := s.Index().FirstSeen(b1.Txs[1].ID); ok {
		t.Error("snapshot of a failed batch was applied")
	}
	if st := s.State(); st.Appends != 1 || st.Snapshots != 0 || st.Txs != 1 || st.LastHeight != 0 {
		t.Errorf("state = %+v", st)
	}
	if h, last, ok := s.Watermark(); !ok || h != 0 || !last.Equal(clock()) {
		t.Errorf("watermark = %d %v %v", h, last, ok)
	}
}

// TestCoveredBatchAppliesNothing pins Covered's promise: a batch whose first
// block is at or below the watermark fails Apply at that block and leaves
// the set as it was, snapshots included; batches above the watermark, and
// every batch of an empty set, are not covered.
func TestCoveredBatchAppliesNothing(t *testing.T) {
	s := New("t", NewIndex(0), clock)
	b0, b1, b2 := mkBlock(0), mkBlock(1), mkBlock(2)
	if s.Covered(&Batch{Blocks: []*chain.Block{b0}}) {
		t.Fatal("an empty set reported a batch covered")
	}
	if _, err := s.Apply(&Batch{Blocks: []*chain.Block{b0, b1}}); err != nil {
		t.Fatal(err)
	}
	before := s.State()
	for _, first := range []*chain.Block{b0, b1} {
		b := &Batch{Blocks: []*chain.Block{first, b2}, Snapshots: []Snapshot{snapOf(b2, b2.Time)}}
		if !s.Covered(b) {
			t.Fatalf("batch from height %d not covered at watermark 1", first.Height)
		}
		p, err := s.Apply(b)
		if err == nil || p.Appended != 0 || p.Snapshots != 0 {
			t.Fatalf("covered batch from height %d: progress %+v, err %v", first.Height, p, err)
		}
		if st := s.State(); st != before {
			t.Fatalf("covered batch changed the state: %+v, want %+v", st, before)
		}
	}
	for _, b := range []*Batch{{Blocks: []*chain.Block{b2}}, {Snapshots: []Snapshot{snapOf(b1, b1.Time)}}} {
		if s.Covered(b) {
			t.Errorf("batch %+v reported covered at watermark 1", b)
		}
	}
}

func TestApplySnapshotRule(t *testing.T) {
	s := New("t", NewIndex(0), clock)
	b0 := mkBlock(0)
	id := b0.Txs[1].ID
	// No first-seen time of its own: the snapshot time stands in. The frame
	// source beats the batch source.
	sn := snapOf(b0, time.Time{})
	sn.Source = "s2"
	if _, err := s.Apply(&Batch{Source: "s1", Blocks: []*chain.Block{b0}, Snapshots: []Snapshot{sn}}); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Index().FirstSeen(id); !got.Equal(b0.Time) {
		t.Errorf("first seen = %v, want the snapshot time %v", got, b0.Time)
	}
	if got := s.Index().Sources(); len(got) != 1 || got[0] != "s2" {
		t.Errorf("sources = %v, want [s2]", got)
	}
	// An empty source is anonymous: no ledger entry.
	b1 := mkBlock(1)
	if _, err := s.Apply(&Batch{Blocks: []*chain.Block{b1}, Snapshots: []Snapshot{snapOf(b1, b1.Time)}}); err != nil {
		t.Fatal(err)
	}
	if got := s.Index().SourceFirstSeen(b1.Txs[1].ID); len(got) != 0 {
		t.Errorf("anonymous snapshot ledgered %v", got)
	}
}

// TestFingerprintKeys checks what each rotation keys on: the frame's
// transaction count (not the decoded IDs), and the source only when it is
// attributed.
func TestFingerprintKeys(t *testing.T) {
	b0 := mkBlock(0)
	fp := func(sn Snapshot, source string) string {
		s := New("t", NewIndex(0), clock)
		if _, err := s.Apply(&Batch{Source: source, Blocks: []*chain.Block{b0}, Snapshots: []Snapshot{sn}}); err != nil {
			t.Fatal(err)
		}
		return s.State().Fingerprint
	}
	plain := snapOf(b0, b0.Time)
	counted := plain
	counted.Count = 2
	if fp(plain, "") == fp(counted, "") {
		t.Error("snapshot count does not key the fingerprint")
	}
	if fp(plain, "") != fp(plain, index.SourceAnonymous) {
		t.Error("the reserved anonymous source changed the fingerprint")
	}
	if fp(plain, "") == fp(plain, "s1") {
		t.Error("attribution does not key the fingerprint")
	}
}

func TestRestoreResumes(t *testing.T) {
	s := New("t", NewIndex(0), clock)
	if _, err := s.Apply(&Batch{Blocks: []*chain.Block{mkBlock(0), mkBlock(1)}}); err != nil {
		t.Fatal(err)
	}
	ix, err := RestoreIndex(index.RestoreState{Blocks: []*chain.Block{mkBlock(0), mkBlock(1)}, Ingested: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := Restore(ix, s.State(), clock)
	if r.State() != s.State() {
		t.Fatalf("restored state %+v, want %+v", r.State(), s.State())
	}
	b2 := mkBlock(2)
	want, err := s.Apply(&Batch{Blocks: []*chain.Block{b2}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Apply(&Batch{Blocks: []*chain.Block{mkBlock(2)}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != want.Fingerprint || *got.Height != 2 {
		t.Errorf("restored set applied to %s at %d, want %s", got.Fingerprint, *got.Height, want.Fingerprint)
	}
	if _, _, ok := Restore(NewIndex(0), State{}, clock).Watermark(); ok {
		t.Error("an empty restored set reports a watermark")
	}
}
