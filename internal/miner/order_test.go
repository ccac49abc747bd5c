package miner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/mempool"
	"chainaudit/internal/stats"
)

// orderPools is the BuildBlock table: one pool per deviant behaviour, each
// of which filters or forces part of the entry set before its policy runs,
// plus an honest pool that mines below the relay-minimum fee-rate. All but
// that one leave AllowLowFee false.
func orderPools(accelerated map[chain.TxID]bool) []*Pool {
	selfish := NewPool("Selfish", "/selfish/", 0.2, 2).PrioritizeOwnWallets()
	partner := NewPool("Partner", "/partner/", 0.1, 2)
	lowFee := NewPool("LowFee", "/lowfee/", 0.1, 1)
	lowFee.AllowLowFee = true
	return []*Pool{
		NewPool("Honest", "/honest/", 0.2, 1),
		selfish,
		NewPool("Colluder", "/colluder/", 0.1, 1).ColludeWith(partner),
		NewPool("Accelerator", "/accel/", 0.2, 1).SellAcceleration(func(id chain.TxID) bool { return accelerated[id] }),
		NewPool("Censor", "/censor/", 0.1, 1).CensorAddresses("blocked"),
		lowFee,
	}
}

// orderMempool builds a seeded mempool of n transactions with CPFP chains
// and diamonds, fee-rates on both sides of the relay minimum (many of them
// equal), and parties drawn from the selfish and partner pools' wallets, a
// blacklisted address and ordinary users. It also marks about one
// transaction in eight as dark-fee accelerated.
func orderMempool(t *testing.T, rng *stats.RNG, n int, accelerated map[chain.TxID]bool) *mempool.Pool {
	t.Helper()
	parties := []chain.Address{"alice", "bob", "carol", "blocked"}
	for _, name := range []string{"Selfish", "Partner"} {
		book := NewPool(name, "", 0, 2).Wallets
		for i := 0; i < book.Len(); i++ {
			parties = append(parties, book.At(i))
		}
	}
	sizes := []int64{140, 200, 250, 400}
	tenths := []chain.Amount{0, 5, 10, 10, 20, 30, 50, 80}
	var unspent []chain.TxOut
	var unspentOps []chain.OutPoint
	p := mempool.New(mempool.WithMinFeeRate(0))
	for i := 0; i < n; i++ {
		vsize := sizes[rng.Intn(len(sizes))]
		fee := tenths[rng.Intn(len(tenths))] * chain.Amount(vsize) / 10
		tx := &chain.Tx{VSize: vsize, Fee: fee, Time: propTime}
		if k := rng.Intn(3); k > 0 && len(unspent) > 0 {
			for ; k > 0 && len(unspent) > 0; k-- {
				j := rng.Intn(len(unspent))
				tx.Inputs = append(tx.Inputs, chain.TxIn{PrevOut: unspentOps[j], Address: unspent[j].Address, Value: unspent[j].Value})
				unspent[j], unspentOps[j] = unspent[len(unspent)-1], unspentOps[len(unspentOps)-1]
				unspent, unspentOps = unspent[:len(unspent)-1], unspentOps[:len(unspentOps)-1]
			}
		} else {
			tx.Inputs = []chain.TxIn{{
				PrevOut: chain.OutPoint{TxID: chain.TxID{byte(i), byte(i >> 8), 0xCD}},
				Address: parties[rng.Intn(len(parties))],
				Value:   1_000_000 * chain.BTC,
			}}
		}
		half := (tx.InputValue() - fee) / 2
		tx.Outputs = []chain.TxOut{
			{Address: parties[rng.Intn(len(parties))], Value: tx.InputValue() - fee - half},
			{Address: parties[rng.Intn(len(parties))], Value: half},
		}
		tx.ComputeID()
		if err := p.Add(tx, propTime.Add(time.Duration(rng.Intn(3600))*time.Second)); err != nil {
			t.Fatalf("add tx %d: %v", i, err)
		}
		if rng.Intn(8) == 0 {
			accelerated[tx.ID] = true
		}
		for k, out := range tx.Outputs {
			unspent = append(unspent, out)
			unspentOps = append(unspentOps, chain.OutPoint{TxID: tx.ID, Index: uint32(k)})
		}
	}
	return p
}

var propTime = time.Unix(1_600_000_000, 0)

// orderCase is one BuildBlock call of the table: a pool, its mempool's
// entries in sorted order, and a block capacity.
type orderCase struct {
	name     string
	pool     *Pool
	entries  []*mempool.Entry
	capacity int64
}

// orderTable enumerates the table's cases over seeded mempools, at
// capacities from one that fits only the coinbase to one that fits every
// entry. next is called with each case in a fixed order.
func orderTable(t *testing.T, next func(orderCase, *stats.RNG)) {
	for seed := uint64(1); seed <= 12; seed++ {
		rng := stats.NewRNG(seed)
		accelerated := map[chain.TxID]bool{}
		mp := orderMempool(t, rng, 20+4*int(seed), accelerated)
		for _, pool := range orderPools(accelerated) {
			for _, capacity := range []int64{120, 400, 1500, 4000, mp.TotalVSize() + 120} {
				next(orderCase{
					name:     fmt.Sprintf("seed %d, %s, capacity %d", seed, pool.Name, capacity),
					pool:     pool,
					entries:  mp.Entries(),
					capacity: capacity,
				}, rng)
			}
		}
	}
}

// build mines the case's block from entries, first dropping those below the
// relay-minimum fee-rate unless the pool allows low-fee transactions, as
// the simulator's mineBlock does.
func (c orderCase) build(entries []*mempool.Entry) *chain.Block {
	view := make([]*mempool.Entry, 0, len(entries))
	for _, e := range entries {
		if c.pool.AllowLowFee || e.Tx.FeeRate() >= chain.MinRelayFeeRate {
			view = append(view, e)
		}
	}
	return c.pool.BuildBlock(650_000, propTime.Add(time.Hour), view, [32]byte{}, c.capacity)
}

// TestBuildBlockIgnoresEntryOrder is the contract the simulator's unsorted
// mempool view rests on: for every behaviour, BuildBlock over shuffled
// entries mines the block it mines over the sorted ones.
func TestBuildBlockIgnoresEntryOrder(t *testing.T) {
	orderTable(t, func(c orderCase, rng *stats.RNG) {
		want := c.build(c.entries)
		for i := 0; i < 3; i++ {
			shuffled := append([]*mempool.Entry(nil), c.entries...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if got := c.build(shuffled); got.Hash != want.Hash {
				t.Fatalf("%s: shuffled entries mined %d txs, sorted %d: block hashes differ", c.name, len(got.Txs), len(want.Txs))
			}
		}
	})
}

// pinnedBuildBlockDigest is the sha256 over every block hash of the table,
// as mined by the full-backlog template builders (before templates stopped
// at a full block). Change it only with a change that means to alter which
// transactions a pool mines, or their order.
const pinnedBuildBlockDigest = "6b1a7ab0d74d9dc2ab71f7cc79c0cf2cc649bc09efbc1ebdfd2bbeb479fd8bed"

// TestBuildBlockPinnedDigest holds BuildBlock, behaviours and relay-fee
// filter included, to the blocks the full-backlog builders mined.
func TestBuildBlockPinnedDigest(t *testing.T) {
	h := sha256.New()
	orderTable(t, func(c orderCase, _ *stats.RNG) {
		b := c.build(c.entries)
		h.Write(b.Hash[:])
	})
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedBuildBlockDigest {
		t.Fatalf("BuildBlock table digest = %s, pinned %s", got, pinnedBuildBlockDigest)
	}
}
