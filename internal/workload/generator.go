package workload

import (
	"fmt"
	"math"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/mempool"
	"chainaudit/internal/stats"
	"chainaudit/internal/wallet"
)

// Generator produces the simulation's transactions. All randomness flows
// through the generator's RNG streams, so a seed fully determines the
// workload.
type Generator struct {
	rng   *stats.RNG
	fees  *FeeModel
	sizes *SizeModel
	// CPFPProb is the probability that a freshly issued transaction is a
	// child spending a recent unconfirmed parent (data set C observed a
	// 19.1% CPFP share; A and B saw 26.5% and 23.2%).
	CPFPProb float64
	users    []chain.Address
	seq      uint64
	// recent holds recently issued, presumably unconfirmed transactions
	// that children may spend.
	recent []*chain.Tx
}

// NewGenerator builds a generator with nUsers synthetic wallets.
func NewGenerator(rng *stats.RNG, nUsers int) *Generator {
	g := &Generator{
		rng:      rng,
		fees:     NewFeeModel(rng.Fork(1)),
		sizes:    NewSizeModel(rng.Fork(2)),
		CPFPProb: 0.20,
	}
	for i := 0; i < nUsers; i++ {
		g.users = append(g.users, wallet.DeriveAddress(fmt.Sprintf("user/%d", i)))
	}
	return g
}

// Fees exposes the fee model (for calibration in tests and benches).
func (g *Generator) Fees() *FeeModel { return g.fees }

// randomUser picks a user wallet.
func (g *Generator) randomUser() chain.Address {
	return g.users[g.rng.Intn(len(g.users))]
}

// nextOutpoint fabricates a unique already-confirmed outpoint for a fresh
// transaction's funding input.
func (g *Generator) nextOutpoint() chain.OutPoint {
	g.seq++
	var id chain.TxID
	id[0] = 0xFD // funding namespace, never collides with ComputeID outputs
	for i, v := 1, g.seq; v > 0 && i < 9; i, v = i+1, v>>8 {
		id[i] = byte(v)
	}
	return chain.OutPoint{TxID: id, Index: 0}
}

// buildTx assembles and validates a transaction moving value from one
// address to another with the given fee and size.
func (g *Generator) buildTx(now time.Time, from, to chain.Address, value, fee chain.Amount, vsize int64, prev *chain.OutPoint) *chain.Tx {
	op := g.nextOutpoint()
	if prev != nil {
		op = *prev
	}
	tx := &chain.Tx{
		VSize:   vsize,
		Fee:     fee,
		Time:    now,
		Inputs:  []chain.TxIn{{PrevOut: op, Address: from, Value: value + fee}},
		Outputs: []chain.TxOut{{Address: to, Value: value}},
	}
	tx.ComputeID()
	return tx
}

// UserTx issues an ordinary payment between two users, with fee-rate drawn
// for the given congestion level. With probability CPFPProb (and a parent
// available) the transaction instead spends a recent unconfirmed parent,
// forming a CPFP relationship if both confirm in the same block.
func (g *Generator) UserTx(now time.Time, level mempool.CongestionLevel) *chain.Tx {
	if g.rng.Float64() < g.CPFPProb && len(g.recent) > 0 {
		parent := g.recent[g.rng.Intn(len(g.recent))]
		if child := g.childOf(parent, now, level); child != nil {
			g.remember(child)
			return child
		}
	}
	vsize := g.sizes.Sample()
	rate := g.fees.SampleRate(level)
	fee := chain.Amount(float64(rate) * float64(vsize))
	value := chain.Amount(1_000_000 + g.rng.Int63n(100*int64(chain.BTC)))
	tx := g.buildTx(now, g.randomUser(), g.randomUser(), value, fee, vsize, nil)
	g.remember(tx)
	return tx
}

// childOf issues a transaction spending parent's first output. Chained
// payments are issued under the same market conditions as their parent, so
// the child's fee-rate tracks the parent's with a mild upward skew — enough
// to make CPFP effective without tearing the package's rate away from the
// parent's own (which is what keeps real-world PPE small: the paper
// measures a 2.65% mean even though miners run ancestor-score selection).
// Returns nil when the parent is unspendable.
func (g *Generator) childOf(parent *chain.Tx, now time.Time, level mempool.CongestionLevel) *chain.Tx {
	if len(parent.Outputs) == 0 {
		return nil
	}
	out := parent.Outputs[0]
	vsize := g.sizes.Sample()
	parentRate := float64(parent.FeeRate())
	if parentRate < 1 {
		parentRate = float64(g.fees.SampleRate(level))
	}
	// Multiplier is log-normal around ~1.15x, mostly in [0.7x, 2x].
	rate := chain.SatPerVByte(parentRate * math.Exp(0.15+0.35*g.rng.NormFloat64()))
	if rate < 1 {
		rate = 1
	}
	fee := chain.Amount(float64(rate) * float64(vsize))
	if fee >= out.Value {
		fee = out.Value / 2
	}
	op := chain.OutPoint{TxID: parent.ID, Index: 0}
	tx := &chain.Tx{
		VSize:   vsize,
		Fee:     fee,
		Time:    now,
		Inputs:  []chain.TxIn{{PrevOut: op, Address: out.Address, Value: out.Value}},
		Outputs: []chain.TxOut{{Address: g.randomUser(), Value: out.Value - fee}},
	}
	tx.ComputeID()
	return tx
}

// remember adds tx to the recent-parents buffer (bounded).
func (g *Generator) remember(tx *chain.Tx) {
	const keep = 512
	g.recent = append(g.recent, tx)
	if len(g.recent) > keep {
		g.recent = g.recent[len(g.recent)-keep:]
	}
}

// Forget drops confirmed transactions from the recent-parents buffer so
// later children spend genuinely unconfirmed parents most of the time.
func (g *Generator) Forget(confirmed map[chain.TxID]bool) {
	kept := g.recent[:0]
	for _, tx := range g.recent {
		if !confirmed[tx.ID] {
			kept = append(kept, tx)
		}
	}
	g.recent = kept
}

// PoolPayout issues a payout transaction from a mining pool's wallet to a
// user — the paper's "self-interest transaction" (the pool is the sender).
// Payouts deliberately offer modest fee-rates (5–15 sat/vB): under
// congestion they would wait if treated neutrally, which is precisely what
// makes preferential treatment detectable.
func (g *Generator) PoolPayout(now time.Time, from *wallet.Book) *chain.Tx {
	vsize := g.sizes.Sample()
	rate := 5 + g.rng.Float64()*10
	fee := chain.Amount(rate * float64(vsize))
	value := chain.Amount(1*int64(chain.BTC) + g.rng.Int63n(50*int64(chain.BTC)))
	addr := from.Pick(g.rng.Uint64())
	return g.buildTx(now, addr, g.randomUser(), value, fee, vsize, nil)
}

// ScamPayment issues a victim's payment to the scam wallet, with ordinary
// fee characteristics (the Twitter-scam victims of §5.3 were regular users).
func (g *Generator) ScamPayment(now time.Time, scamWallet chain.Address, level mempool.CongestionLevel) *chain.Tx {
	vsize := g.sizes.Sample()
	rate := g.fees.SampleRate(level)
	if rate < 1 {
		rate = 1
	}
	fee := chain.Amount(float64(rate) * float64(vsize))
	// Victims sent small amounts; the attack collected 12.87 BTC over 386
	// transactions (~0.03 BTC each).
	value := chain.Amount(1_000_000 + g.rng.Int63n(6_000_000))
	return g.buildTx(now, g.randomUser(), scamWallet, value, fee, vsize, nil)
}

// FeeBump issues a replace-by-fee double-spend of original: same funding
// outpoint, the fee raised by 1.3–3x, the payment value reduced to keep the
// balance. This is the honest RBF use case — a user accelerating their own
// stuck payment — and the source of the conflicting-transaction pairs the
// paper's introduction highlights. Returns nil when the original cannot
// absorb the bump.
func (g *Generator) FeeBump(original *chain.Tx, now time.Time) *chain.Tx {
	if len(original.Inputs) == 0 || len(original.Outputs) == 0 {
		return nil
	}
	mult := 1.3 + 1.7*g.rng.Float64()
	newFee := chain.Amount(float64(original.Fee) * mult)
	if newFee <= original.Fee {
		newFee = original.Fee + 1
	}
	delta := newFee - original.Fee
	if original.Outputs[0].Value <= delta {
		return nil
	}
	tx := &chain.Tx{
		VSize:   original.VSize,
		Fee:     newFee,
		Time:    now,
		Inputs:  []chain.TxIn{original.Inputs[0]},
		Outputs: []chain.TxOut{{Address: original.Outputs[0].Address, Value: original.Outputs[0].Value - delta}},
	}
	tx.ComputeID()
	return tx
}

// LowBallTx issues a deliberately under-priced transaction (below the relay
// minimum), used to exercise norm III.
func (g *Generator) LowBallTx(now time.Time) *chain.Tx {
	vsize := g.sizes.Sample()
	var fee chain.Amount
	if g.rng.Float64() > 0.45 {
		fee = chain.Amount(g.rng.Float64() * 0.9 * float64(vsize))
	}
	value := chain.Amount(1_000_000 + g.rng.Int63n(int64(chain.BTC)))
	return g.buildTx(now, g.randomUser(), g.randomUser(), value, fee, vsize, nil)
}
