package mempool

import (
	"testing"
	"testing/quick"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/stats"
)

// walkVSize and walkTopFeeRate are the map-walk oracles for the pool's
// O(1) running total and its unsorted top fee-rate scan.
func walkVSize(p *Pool) int64 {
	var v int64
	for _, e := range p.Entries() {
		v += e.Tx.VSize
	}
	return v
}

func walkTopFeeRate(p *Pool) chain.SatPerVByte {
	var top chain.SatPerVByte
	for _, e := range p.Entries() {
		if r := e.Tx.FeeRate(); r > top {
			top = r
		}
	}
	return top
}

// spendTx builds a valid transaction spending prev (worth value) with the
// given fee and vsize; tag keeps otherwise equal spends distinct.
func spendTx(prev chain.OutPoint, value, fee chain.Amount, vsize int64, tag string) *chain.Tx {
	tx := &chain.Tx{
		VSize:   vsize,
		Fee:     fee,
		Time:    baseTime,
		Inputs:  []chain.TxIn{{PrevOut: prev, Address: "sender", Value: value}},
		Outputs: []chain.TxOut{{Address: chain.Address(tag), Value: value - fee}},
	}
	tx.ComputeID()
	return tx
}

// TestPoolAccountingProperty drives random sequences over every operation
// that adds or removes entries — Add (fresh and child transactions),
// AddOrReplace (accepted and underpriced RBF, evicting descendants),
// Remove, RemoveConfirmed, RemoveConflicts and EvictToSize — and after every
// step checks TotalVSize and TopFeeRate against map-walk oracles, and each
// operation's reported removals against the pool's size change.
func TestPoolAccountingProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, rawOps uint8) bool {
		rng := stats.NewRNG(seed)
		p := New(WithMinFeeRate(0))
		ops := int(rawOps%120) + 40
		fresh := 0
		freshOut := func() chain.OutPoint {
			fresh++
			return chain.OutPoint{TxID: chain.TxID{byte(fresh), byte(fresh >> 8), byte(seed), 0x77}}
		}
		pick := func() *Entry {
			entries := p.Entries()
			if len(entries) == 0 {
				return nil
			}
			return entries[rng.Intn(len(entries))]
		}
		coinbase := &chain.Tx{VSize: 100, CoinbaseTag: "/P/"}
		for i := 0; i < ops; i++ {
			before := p.Len()
			seen := baseTime.Add(time.Duration(i) * time.Second)
			vsize := int64(100 + rng.Intn(900))
			fee := chain.Amount(rng.Intn(100_000))
			// entered is the transaction the step admitted, if any; gone
			// lists transactions that must have left the pool; removed is
			// how many the operation reported evicting.
			var entered *chain.Tx
			var gone []*chain.Tx
			removed := 0
			switch r := rng.Float64(); {
			case r < 0.30: // independent transaction
				if tx := spendTx(freshOut(), chain.BTC, fee, vsize, "fresh"); p.Add(tx, seen) == nil {
					entered = tx
				}
			case r < 0.45: // child of a pending transaction
				e := pick()
				if e == nil {
					continue
				}
				val := e.Tx.Outputs[0].Value
				if tx := spendTx(chain.OutPoint{TxID: e.Tx.ID}, val, fee%val, vsize, "child"); p.Add(tx, seen) == nil {
					entered = tx
				}
			case r < 0.60: // replace-by-fee against a pending transaction
				e := pick()
				if e == nil {
					continue
				}
				in := e.Tx.Inputs[0]
				// About 70 % of the bumps clear the 1.1× premium; the rest fall short.
				bump := 0.5 + rng.Float64()*2
				newFee := chain.Amount(float64(e.Tx.FeeRate())*bump*float64(vsize)) + 1
				if newFee >= in.Value {
					newFee = in.Value - 1
				}
				tx := spendTx(in.PrevOut, in.Value, newFee, vsize, "rbf")
				evicted, err := p.AddOrReplace(tx, seen)
				if err == nil {
					entered = tx
				}
				gone, removed = evicted, len(evicted)
			case r < 0.72:
				if e := pick(); e != nil && p.Remove(e.Tx.ID) {
					gone, removed = []*chain.Tx{e.Tx}, 1
				}
			case r < 0.82: // a block confirming a random subset
				blk := &chain.Block{Txs: []*chain.Tx{coinbase}}
				for _, e := range p.Entries() {
					if rng.Float64() < 0.3 {
						blk.Txs = append(blk.Txs, e.Tx)
					}
				}
				gone, removed = blk.Body(), p.RemoveConfirmed(blk)
			case r < 0.92: // a block spending a pending transaction's input
				e := pick()
				if e == nil {
					continue
				}
				in := e.Tx.Inputs[0]
				winner := spendTx(in.PrevOut, in.Value, 0, vsize, "winner")
				gone, removed = []*chain.Tx{e.Tx}, p.RemoveConflicts(&chain.Block{Txs: []*chain.Tx{coinbase, winner}})
			default:
				limit := int64(rng.Float64() * float64(p.TotalVSize()))
				evicted := p.EvictToSize(limit)
				gone, removed = evicted, len(evicted)
				if p.TotalVSize() > limit {
					return false
				}
			}
			added := 0
			if entered != nil {
				if !p.Contains(entered.ID) {
					return false
				}
				added = 1
			}
			for _, tx := range gone {
				if p.Contains(tx.ID) {
					return false
				}
			}
			if p.Len() != before+added-removed {
				return false
			}
			if p.TotalVSize() != walkVSize(p) || p.TopFeeRate() != walkTopFeeRate(p) {
				return false
			}
		}
		// Entries stay in first-seen order.
		entries := p.Entries()
		for i := 1; i < len(entries); i++ {
			if entries[i].FirstSeen.Before(entries[i-1].FirstSeen) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestAncestryConsistencyProperty builds random chains of dependent
// transactions and verifies parent/child links stay symmetric through
// removals.
func TestAncestryConsistencyProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, rawN uint8) bool {
		rng := stats.NewRNG(seed)
		p := New(WithMinFeeRate(0))
		n := int(rawN%30) + 5
		var pool []*chain.Tx
		for i := 0; i < n; i++ {
			var tx *chain.Tx
			if len(pool) > 0 && rng.Float64() < 0.5 {
				parent := pool[rng.Intn(len(pool))]
				if p.Contains(parent.ID) && p.spenders[chain.OutPoint{TxID: parent.ID, Index: 0}] == nil {
					tx = mkChild(parent, chain.Amount(rng.Intn(50_000)), int64(100+rng.Intn(400)))
				}
			}
			if tx == nil {
				tx = mkTx(chain.Amount(rng.Intn(50_000)), int64(100+rng.Intn(400)), byte(i))
				tx.Inputs[0].PrevOut.TxID = chain.TxID{byte(i), byte(seed >> 8), 0x55}
				tx.ComputeID()
			}
			if err := p.Add(tx, baseTime.Add(time.Duration(i)*time.Second)); err != nil {
				continue
			}
			pool = append(pool, tx)
		}
		check := func() bool {
			for _, e := range p.Entries() {
				for _, par := range e.Parents() {
					if !p.Contains(par.Tx.ID) {
						return false
					}
					found := false
					for _, ch := range par.Children() {
						if ch == e {
							found = true
						}
					}
					if !found {
						return false
					}
				}
				for _, ch := range e.Children() {
					found := false
					for _, par := range ch.Parents() {
						if par == e {
							found = true
						}
					}
					if !found {
						return false
					}
				}
			}
			return true
		}
		if !check() {
			return false
		}
		// Remove half and re-check.
		entries := p.Entries()
		for i, e := range entries {
			if i%2 == 0 {
				p.Remove(e.Tx.ID)
			}
		}
		return check()
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
