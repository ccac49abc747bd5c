package index_test

import (
	"math"
	"testing"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/core"
	"chainaudit/internal/dataset"
	"chainaudit/internal/index"
	"chainaudit/internal/pipeline"
	"chainaudit/internal/poolid"
)

func buildA(t testing.TB) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Cached(dataset.BuilderA, dataset.Options{Seed: 11, Duration: 4 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestBuildSerialParallelIdentical is the tentpole equivalence guarantee:
// the index built on a forced multi-worker pool is bit-identical to the one
// built serially.
func TestBuildSerialParallelIdentical(t *testing.T) {
	ds := buildA(t)
	c, reg := ds.Result.Chain, ds.Registry
	serial := index.Build(c, reg, index.WithExecutor(pipeline.Serial()))
	par := index.Build(c, reg, index.WithExecutor(pipeline.New(8)))

	if serial.Len() != par.Len() || serial.Len() != c.Len() {
		t.Fatalf("lengths: serial %d parallel %d chain %d", serial.Len(), par.Len(), c.Len())
	}
	for i := 0; i < serial.Len(); i++ {
		sr, pr := serial.Record(i), par.Record(i)
		if sr.Block != pr.Block || sr.Pool != pr.Pool {
			t.Fatalf("block %d: attribution diverged (%q vs %q)", i, sr.Pool, pr.Pool)
		}
		if sr.PPEValid != pr.PPEValid || sr.PPE != pr.PPE {
			t.Fatalf("block %d: PPE diverged (%v,%v) vs (%v,%v)", i, sr.PPE, sr.PPEValid, pr.PPE, pr.PPEValid)
		}
		if len(sr.Positions.IDs) != len(pr.Positions.IDs) {
			t.Fatalf("block %d: audited counts diverged", i)
		}
		for _, id := range sr.Positions.IDs {
			if sr.Positions.Observed[id] != pr.Positions.Observed[id] ||
				sr.Positions.Predicted[id] != pr.Positions.Predicted[id] {
				t.Fatalf("block %d tx %s: positions diverged", i, id)
			}
		}
		for j, fr := range sr.FeeRates {
			if pr.FeeRates[j] != fr {
				t.Fatalf("block %d: fee-rate %d diverged", i, j)
			}
		}
	}
	ss, ps := serial.Shares(), par.Shares()
	if len(ss) != len(ps) {
		t.Fatalf("share counts diverged: %d vs %d", len(ss), len(ps))
	}
	for i := range ss {
		if ss[i] != ps[i] {
			t.Fatalf("share %d diverged: %+v vs %+v", i, ss[i], ps[i])
		}
	}
}

// TestIndexMatchesSerialAudits pins every index-derived aggregate to the
// historical serial computation it replaced.
func TestIndexMatchesSerialAudits(t *testing.T) {
	ds := buildA(t)
	c, reg := ds.Result.Chain, ds.Registry
	ix := index.Build(c, reg)

	// Per-block PPE and attribution.
	for i, b := range c.Blocks() {
		want, wantOK := core.PPE(b)
		rec := ix.Record(i)
		if rec.PPE != want || rec.PPEValid != wantOK || rec.Pool != reg.AttributeBlock(b) {
			t.Fatalf("record %d: PPE %v/%v pool %q, want %v/%v %q", i, rec.PPE, rec.PPEValid, rec.Pool, want, wantOK, reg.AttributeBlock(b))
		}
	}

	// Hash-rate shares.
	shares := poolid.EstimateShares(c, reg)
	ixShares := ix.Shares()
	if len(shares) != len(ixShares) {
		t.Fatalf("share counts: %d vs %d", len(shares), len(ixShares))
	}
	for i := range shares {
		if shares[i] != ixShares[i] {
			t.Fatalf("share %d: %+v vs %+v", i, shares[i], ixShares[i])
		}
	}

	// Top-pool roster: the shares above, in order, minus Unknown and the
	// pools under 4%.
	var wantTop []string
	for _, s := range shares {
		if s.Pool != poolid.Unknown && s.HashRate >= 0.04 {
			wantTop = append(wantTop, s.Pool)
		}
	}
	gotTop := ix.TopPoolsByShare(0.04)
	if len(wantTop) != len(gotTop) {
		t.Fatalf("top pools: %v vs %v", wantTop, gotTop)
	}
	for i := range wantTop {
		if wantTop[i] != gotTop[i] {
			t.Fatalf("top pools: %v vs %v", wantTop, gotTop)
		}
	}

	// Reward addresses and self-interest sets.
	wantAddrs := poolid.RewardAddresses(c, reg)
	gotAddrs := ix.RewardAddresses()
	if len(wantAddrs) != len(gotAddrs) {
		t.Fatalf("reward address pool counts: %d vs %d", len(wantAddrs), len(gotAddrs))
	}
	for pool, set := range wantAddrs {
		if len(gotAddrs[pool]) != len(set) {
			t.Fatalf("pool %q reward addresses: %d vs %d", pool, len(set), len(gotAddrs[pool]))
		}
		for a := range set {
			if !gotAddrs[pool][a] {
				t.Fatalf("pool %q missing reward address %q", pool, a)
			}
		}
	}
	wantSets := serialSelfInterestSets(c, reg)
	gotSets := ix.SelfInterestSets()
	if len(wantSets) != len(gotSets) {
		t.Fatalf("self-interest pool counts: %d vs %d", len(wantSets), len(gotSets))
	}
	for pool, set := range wantSets {
		if len(gotSets[pool]) != len(set) {
			t.Fatalf("pool %q self-interest sets: %d vs %d txs", pool, len(set), len(gotSets[pool]))
		}
		for id := range set {
			if !gotSets[pool][id] {
				t.Fatalf("pool %q missing self-interest tx %s", pool, id)
			}
		}
	}
}

// serialSelfInterestSets derives the §5.2 self-interest sets the serial
// way: collect every identified pool's reward addresses over the whole
// chain, then credit each transaction touching one to the owning pool.
func serialSelfInterestSets(c *chain.Chain, reg *poolid.Registry) map[string]map[chain.TxID]bool {
	owner := make(map[chain.Address]string)
	for pool, addrs := range poolid.RewardAddresses(c, reg) {
		if pool == poolid.Unknown {
			continue
		}
		for a := range addrs {
			owner[a] = pool
		}
	}
	out := make(map[string]map[chain.TxID]bool)
	for _, b := range c.Blocks() {
		for _, tx := range b.Body() {
			for a, pool := range owner {
				if !tx.Touches(a) {
					continue
				}
				if out[pool] == nil {
					out[pool] = make(map[chain.TxID]bool)
				}
				out[pool][tx.ID] = true
			}
		}
	}
	return out
}

// TestLocateRecordAndFirstSeen covers the index's transaction lookups.
func TestLocateRecordAndFirstSeen(t *testing.T) {
	ds := buildA(t)
	c, reg := ds.Result.Chain, ds.Registry

	seen := map[chain.TxID]time.Time{}
	var probe chain.TxID
	for _, b := range c.Blocks() {
		for _, tx := range b.Body() {
			probe = tx.ID
			seen[tx.ID] = b.Time
		}
	}
	ix := index.Build(c, reg)
	ix.ObserveFirstSeen(seen)

	for i := 0; i < ix.Len(); i++ {
		rec := ix.Record(i)
		for _, tx := range rec.Block.Body() {
			bi, ok := ix.LocateRecord(tx.ID)
			if !ok || bi != i {
				t.Fatalf("LocateRecord(%s) = (%d, %v), want (%d, true)", tx.ID, bi, ok, i)
			}
		}
	}
	if probe != (chain.TxID{}) {
		if _, ok := ix.FirstSeen(probe); !ok {
			t.Fatalf("FirstSeen(%s) missing", probe)
		}
	}
	if _, ok := ix.LocateRecord(chain.TxID{0xde, 0xad}); ok {
		t.Fatal("LocateRecord found a nonexistent transaction")
	}
}

// TestSPPEConsistency ties Positions.SPPE to the definition.
func TestSPPEConsistency(t *testing.T) {
	ds := buildA(t)
	ix := index.Build(ds.Result.Chain, ds.Registry)
	checked := 0
	for i := 0; i < ix.Len() && checked < 200; i++ {
		p := ix.Record(i).Positions
		n := p.N()
		for _, id := range p.IDs {
			s, ok := p.SPPE(id)
			if !ok {
				t.Fatalf("SPPE not ok for audited tx %s", id)
			}
			want := index.PercentileRank(p.Predicted[id], n) - index.PercentileRank(p.Observed[id], n)
			if math.Abs(s-want) > 1e-12 {
				t.Fatalf("SPPE(%s) = %v, want %v", id, s, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no audited transactions checked")
	}
}

// TestIncrementalMatchesBuild is the streaming-side equivalence guarantee:
// feeding the same blocks one at a time through AppendBlock produces an
// index identical, aggregate for aggregate, to a batch Build — record
// contents, pool shares, reward addresses, and self-interest sets included.
func TestIncrementalMatchesBuild(t *testing.T) {
	ds := buildA(t)
	c, reg := ds.Result.Chain, ds.Registry
	batch := index.Build(c, reg)

	inc := index.NewIncremental(reg)
	for i, b := range c.Blocks() {
		rec, err := inc.AppendBlock(b)
		if err != nil {
			t.Fatalf("AppendBlock(%d): %v", b.Height, err)
		}
		if rec.Block != b || rec != inc.Record(i) {
			t.Fatalf("AppendBlock(%d) returned a detached record", b.Height)
		}
	}
	if inc.Len() != batch.Len() {
		t.Fatalf("lengths: incremental %d batch %d", inc.Len(), batch.Len())
	}
	for i := 0; i < batch.Len(); i++ {
		br, ir := batch.Record(i), inc.Record(i)
		if br.Block != ir.Block || br.Pool != ir.Pool ||
			br.PPE != ir.PPE || br.PPEValid != ir.PPEValid {
			t.Fatalf("record %d diverged: %+v vs %+v", i, br, ir)
		}
		for _, id := range br.Positions.IDs {
			if br.Positions.Observed[id] != ir.Positions.Observed[id] ||
				br.Positions.Predicted[id] != ir.Positions.Predicted[id] {
				t.Fatalf("record %d tx %s: positions diverged", i, id)
			}
		}
	}
	bs, is := batch.Shares(), inc.Shares()
	if len(bs) != len(is) {
		t.Fatalf("share counts: batch %d incremental %d", len(bs), len(is))
	}
	for i := range bs {
		if bs[i] != is[i] {
			t.Fatalf("share %d diverged: %+v vs %+v", i, bs[i], is[i])
		}
	}
	for _, s := range bs {
		bp, ip := batch.PoolRecords(s.Pool), inc.PoolRecords(s.Pool)
		if len(bp) != len(ip) {
			t.Fatalf("pool %s: record counts diverged", s.Pool)
		}
		for i := range bp {
			if bp[i] != ip[i] {
				t.Fatalf("pool %s: record order diverged at %d", s.Pool, i)
			}
		}
	}
	ba, ia := batch.RewardAddresses(), inc.RewardAddresses()
	if len(ba) != len(ia) {
		t.Fatalf("reward-address pools: batch %d incremental %d", len(ba), len(ia))
	}
	for pool, want := range ba {
		got := ia[pool]
		if len(got) != len(want) {
			t.Fatalf("pool %s: reward-address counts diverged", pool)
		}
		for a := range want {
			if !got[a] {
				t.Fatalf("pool %s: incremental missed reward address %s", pool, a)
			}
		}
	}
	bss, iss := batch.SelfInterestSets(), inc.SelfInterestSets()
	if len(bss) != len(iss) {
		t.Fatalf("self-interest pools: batch %d incremental %d", len(bss), len(iss))
	}
	for pool, want := range bss {
		got := iss[pool]
		if len(got) != len(want) {
			t.Fatalf("pool %s: self-interest sizes diverged (%d vs %d)", pool, len(want), len(got))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("pool %s: incremental missed self-interest tx %s", pool, id)
			}
		}
	}
}

// TestAppendBlockRejectsAndLeavesIndexIntact pins the streaming failure
// contract: a rejected append leaves the index exactly as it was.
func TestAppendBlockRejectsAndLeavesIndexIntact(t *testing.T) {
	ds := buildA(t)
	c, reg := ds.Result.Chain, ds.Registry
	blocks := c.Blocks()
	if len(blocks) < 3 {
		t.Skip("fixture too small")
	}
	inc := index.NewIncremental(reg)
	if _, err := inc.AppendBlock(blocks[0]); err != nil {
		t.Fatal(err)
	}
	// Gap: skipping blocks[1] must fail and change nothing.
	if _, err := inc.AppendBlock(blocks[2]); err == nil {
		t.Fatal("gap append accepted")
	}
	if inc.Len() != 1 || inc.Chain().Len() != 1 {
		t.Fatalf("rejected append mutated index: len=%d chain=%d", inc.Len(), inc.Chain().Len())
	}
	if _, err := inc.AppendBlock(blocks[1]); err != nil {
		t.Fatalf("valid append after rejection: %v", err)
	}
}

// TestObserveFirstSeen covers the streaming arrival-time merge: earliest
// sighting wins and the caller's map is never mutated.
func TestObserveFirstSeen(t *testing.T) {
	reg := poolid.DefaultRegistry()
	id := chain.TxID{1}
	t0 := time.Unix(1000, 0)
	attached := map[chain.TxID]time.Time{id: t0}
	inc2 := index.NewIncremental(reg)
	inc2.ObserveFirstSeen(attached)

	// A later sighting does not replace the earlier one.
	inc2.ObserveFirstSeen(map[chain.TxID]time.Time{id: t0.Add(time.Minute)})
	if got, ok := inc2.FirstSeen(id); !ok || !got.Equal(t0) {
		t.Fatalf("FirstSeen = %v %v, want %v", got, ok, t0)
	}
	// An earlier sighting does.
	early := t0.Add(-time.Minute)
	inc2.ObserveFirstSeen(map[chain.TxID]time.Time{id: early})
	if got, _ := inc2.FirstSeen(id); !got.Equal(early) {
		t.Fatalf("FirstSeen = %v, want %v", got, early)
	}
	// The first map was copied, not retained.
	if !attached[id].Equal(t0) {
		t.Fatal("ObserveFirstSeen mutated the caller's map")
	}
	// New transactions merge in.
	id2 := chain.TxID{2}
	inc2.ObserveFirstSeen(map[chain.TxID]time.Time{id2: t0})
	if _, ok := inc2.FirstSeen(id2); !ok {
		t.Fatal("new arrival not merged")
	}
}
