package gbt_test

import (
	"fmt"
	"testing"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/gbt"
	"chainaudit/internal/mempool"
	"chainaudit/internal/norms"
	"chainaudit/internal/stats"
)

var propTime = time.Unix(1_600_000_000, 0)

// randomEntries builds a seeded mempool of n transactions and returns a
// subset of its entries in the pool's sorted order. Roots, fan-outs, CPFP
// chains and diamonds all occur: each transaction has two outputs, and a
// non-root spends one or two outputs of earlier ones. Vsizes come from a
// small set, so builds reach a room left exactly equal to the smallest
// vsize; most fee-rates come from a small set too, so equal scores force
// TxID tie-breaks. About one entry in ten is left out of the view, the way
// a pool's relay-fee floor or blacklist leaves a parent out.
func randomEntries(t *testing.T, rng *stats.RNG, n int) []*mempool.Entry {
	t.Helper()
	sizes := []int64{100, 150, 200, 250, 400}
	rates := []chain.Amount{0, 1, 2, 3, 5, 8, 13}
	type utxo struct {
		op    chain.OutPoint
		value chain.Amount
		depth int
	}
	var unspent []utxo
	p := mempool.New(mempool.WithMinFeeRate(0))
	for i := 0; i < n; i++ {
		vsize := sizes[rng.Intn(len(sizes))]
		fee := rates[rng.Intn(len(rates))] * chain.Amount(vsize)
		if rng.Intn(4) == 0 {
			fee = chain.Amount(rng.Intn(3000))
		}
		tx := &chain.Tx{VSize: vsize, Fee: fee, Time: propTime}
		depth := 0
		for k := rng.Intn(3); k > 0 && len(unspent) > 0; k-- {
			j := rng.Intn(len(unspent))
			u := unspent[j]
			unspent[j] = unspent[len(unspent)-1]
			unspent = unspent[:len(unspent)-1]
			tx.Inputs = append(tx.Inputs, chain.TxIn{PrevOut: u.op, Address: "a", Value: u.value})
			depth = max(depth, u.depth+1)
		}
		if len(tx.Inputs) == 0 {
			tx.Inputs = []chain.TxIn{{
				PrevOut: chain.OutPoint{TxID: chain.TxID{byte(i), byte(i >> 8), 0xAB}},
				Address: "a",
				Value:   1_000_000 * chain.BTC,
			}}
		}
		half := (tx.InputValue() - fee) / 2
		tx.Outputs = []chain.TxOut{
			{Address: "b", Value: tx.InputValue() - fee - half},
			{Address: "c", Value: half},
		}
		tx.ComputeID()
		seen := propTime.Add(time.Duration(rng.Intn(600)) * time.Minute)
		if err := p.Add(tx, seen); err != nil {
			t.Fatalf("add tx %d: %v", i, err)
		}
		if depth < 12 {
			for k := range tx.Outputs {
				unspent = append(unspent, utxo{op: chain.OutPoint{TxID: tx.ID, Index: uint32(k)}, value: tx.Outputs[k].Value, depth: depth})
			}
		}
	}
	var view []*mempool.Entry
	for _, e := range p.Entries() {
		if rng.Intn(10) != 0 {
			view = append(view, e)
		}
	}
	return view
}

// greedyOracle is the oracle of a policy built on the greedy builder.
func greedyOracle(score func(*mempool.Entry) float64) func([]*mempool.Entry, int64) gbt.Template {
	return func(entries []*mempool.Entry, maxVSize int64) gbt.Template {
		return oracleGreedyBuild(oracleBuildGraph(entries, score), maxVSize)
	}
}

// agingOracle scores like norms.FeeRateWithAging with a zero Now: age is
// measured from the newest first-seen time among the entries.
func agingOracle(rate float64) func([]*mempool.Entry, int64) gbt.Template {
	return func(entries []*mempool.Entry, maxVSize int64) gbt.Template {
		var now time.Time
		for _, e := range entries {
			if e.FirstSeen.After(now) {
				now = e.FirstSeen
			}
		}
		return greedyOracle(func(e *mempool.Entry) float64 {
			return float64(e.Tx.FeeRate()) + rate*now.Sub(e.FirstSeen).Minutes()/10
		})(entries, maxVSize)
	}
}

// capacities returns the build budgets a pool is tested at: below, at and
// just above the smallest vsize; around the pool total; random ones; and,
// for every prefix of the full template, that prefix plus the smallest
// vsize — a budget whose build reaches a room left exactly equal to the
// smallest vsize.
func capacities(rng *stats.RNG, entries []*mempool.Entry, full gbt.Template) []int64 {
	least, total := entries[0].Tx.VSize, int64(0)
	for _, e := range entries {
		least = min(least, e.Tx.VSize)
		total += e.Tx.VSize
	}
	caps := []int64{0, least - 1, least, least + 1, total - 1, total, total + 1, 2 * total}
	for i := 0; i < 8; i++ {
		caps = append(caps, rng.Int63n(total+1))
	}
	var prefix int64
	for _, tx := range full.Txs {
		prefix += tx.VSize
		caps = append(caps, prefix+least)
	}
	return caps
}

// TestTemplatesMatchOracle holds every template policy to the full-backlog
// builders in oracle_test.go over seeded random pools: the early stop at a
// full block, the reused package walk and the one-shot heap must not change
// a single transaction or its position, at any capacity, whatever the
// order of the entries.
func TestTemplatesMatchOracle(t *testing.T) {
	byRate := func(e *mempool.Entry) float64 { return float64(e.Tx.FeeRate()) }
	// A custom score with many ties and a negative range.
	bySize := func(e *mempool.Entry) float64 { return -float64(e.Tx.VSize % 300) }
	aging := norms.FeeRateWithAging{AgingRate: 2}
	anchored := norms.FeeRateWithAging{AgingRate: 0.5, Now: propTime.Add(12 * time.Hour)}
	policies := []struct {
		name   string
		build  func([]*mempool.Entry, int64) gbt.Template
		oracle func([]*mempool.Entry, int64) gbt.Template
	}{
		{"feerate", gbt.FeeRate{}.Build, greedyOracle(byRate)},
		{"priority", gbt.Priority{}.Build, greedyOracle(func(e *mempool.Entry) float64 { return gbt.PriorityScore(e.Tx) })},
		{"ancestorscore", gbt.AncestorScore{}.Build, oracleAncestorScore},
		{"withscore", func(es []*mempool.Entry, m int64) gbt.Template { return gbt.BuildWithScore(es, m, bySize) }, greedyOracle(bySize)},
		{"aging", aging.Build, agingOracle(aging.AgingRate)},
		{"aging-anchored", anchored.Build, greedyOracle(func(e *mempool.Entry) float64 {
			return float64(e.Tx.FeeRate()) + anchored.AgingRate*anchored.Now.Sub(e.FirstSeen).Minutes()/10
		})},
		{"value-density", norms.ValueDensity{}.Build, greedyOracle(norms.ValueDensity{}.Score)},
	}
	builds := 0
	for seed := uint64(1); seed <= 40; seed++ {
		rng := stats.NewRNG(seed)
		entries := randomEntries(t, rng, 5+int(seed))
		if len(entries) == 0 {
			continue
		}
		for _, pol := range policies {
			for _, capacity := range capacities(rng, entries, pol.oracle(entries, 1<<40)) {
				want := pol.oracle(entries, capacity)
				shuffled := append([]*mempool.Entry(nil), entries...)
				rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				for _, view := range [][]*mempool.Entry{entries, shuffled} {
					builds++
					if diff := templateDiff(pol.build(view, capacity), want); diff != "" {
						t.Fatalf("seed %d, %s, capacity %d, %d entries: %s", seed, pol.name, capacity, len(entries), diff)
					}
				}
			}
		}
	}
	t.Logf("%d builds matched their oracle", builds)
}

// templateDiff describes the first difference between two templates, or
// returns "" when they are equal.
func templateDiff(got, want gbt.Template) string {
	if got.TotalFee != want.TotalFee || got.VSize != want.VSize || len(got.Txs) != len(want.Txs) {
		return fmt.Sprintf("got %d txs (fee %d, vsize %d), oracle %d txs (fee %d, vsize %d)",
			len(got.Txs), got.TotalFee, got.VSize, len(want.Txs), want.TotalFee, want.VSize)
	}
	for i := range got.Txs {
		if got.Txs[i].ID != want.Txs[i].ID {
			return fmt.Sprintf("tx %d is %s, oracle has %s", i, got.Txs[i].ID.Short(), want.Txs[i].ID.Short())
		}
	}
	return ""
}
