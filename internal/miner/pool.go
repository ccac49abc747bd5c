package miner

import (
	"fmt"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/gbt"
	"chainaudit/internal/mempool"
	"chainaudit/internal/wallet"
)

// Pool is one mining pool operator.
type Pool struct {
	// Name is the operator's public name (e.g. "F2Pool").
	Name string
	// Marker is the coinbase signature the pool embeds in mined blocks.
	Marker string
	// HashRate is the pool's normalized hash rate in [0, 1].
	HashRate float64
	// Wallets are the pool's reward/payout addresses.
	Wallets *wallet.Book
	// Policy builds the base block template (defaults to ancestor score).
	Policy gbt.Policy
	// Behaviors are applied to the template in order (defaults to honest).
	Behaviors []Behavior
	// PriorityAddresses seeds the behaviour context: wallets this pool
	// preferentially includes (its own for a selfish pool; a partner's for
	// a colluding pool). Nil for honest pools.
	PriorityAddresses map[chain.Address]bool
	// Accelerated reports dark-fee purchases at this pool (nil if the pool
	// sells no acceleration).
	Accelerated func(chain.TxID) bool
	// Blacklist seeds the censor behaviour.
	Blacklist map[chain.Address]bool
	// AllowLowFee makes the pool willing to mine transactions below the
	// relay-minimum fee-rate when capacity allows. The paper found only
	// F2Pool, ViaBTC, and BTC.com ever confirming such transactions
	// (§4.2.3); all other pools drop them.
	AllowLowFee bool
}

// NewPool creates an honest pool with the given identity, using the
// ancestor-score policy and a derived wallet book.
func NewPool(name, marker string, hashRate float64, wallets int) *Pool {
	return &Pool{
		Name:     name,
		Marker:   marker,
		HashRate: hashRate,
		Wallets:  wallet.NewBook(name, wallets),
		Policy:   gbt.AncestorScore{},
	}
}

// PrioritizeOwnWallets configures the pool to selfishly accelerate
// transactions touching its own wallets.
func (p *Pool) PrioritizeOwnWallets() *Pool {
	if p.PriorityAddresses == nil {
		p.PriorityAddresses = make(map[chain.Address]bool)
	}
	for a := range p.Wallets.AsSet() {
		p.PriorityAddresses[a] = true
	}
	p.ensureBehavior(SelfInterest{})
	return p
}

// ColludeWith additionally prioritizes a partner pool's wallets (the
// ViaBTC ↔ 1THash&58Coin / SlushPool pattern of Table 2).
func (p *Pool) ColludeWith(partner *Pool) *Pool {
	if p.PriorityAddresses == nil {
		p.PriorityAddresses = make(map[chain.Address]bool)
	}
	for a := range partner.Wallets.AsSet() {
		p.PriorityAddresses[a] = true
	}
	p.ensureBehavior(SelfInterest{})
	return p
}

// SellAcceleration wires an acceleration oracle into the pool and enables
// the dark-fee behaviour.
func (p *Pool) SellAcceleration(isAccelerated func(chain.TxID) bool) *Pool {
	p.Accelerated = isAccelerated
	p.ensureBehavior(DarkFee{})
	return p
}

// CensorAddresses makes the pool refuse to mine transactions touching the
// given wallets.
func (p *Pool) CensorAddresses(addrs ...chain.Address) *Pool {
	if p.Blacklist == nil {
		p.Blacklist = make(map[chain.Address]bool)
	}
	for _, a := range addrs {
		p.Blacklist[a] = true
	}
	p.ensureBehavior(Censor{})
	return p
}

// forcedEntries returns the entries the pool's behaviours force into the
// block — favoured transactions plus the in-pool ancestors they depend on —
// deduplicated, in the order encountered.
func (p *Pool) forcedEntries(entries []*mempool.Entry, ctx *Context) []*mempool.Entry {
	if len(ctx.PriorityAddresses) == 0 && ctx.Accelerated == nil {
		return nil
	}
	match := func(tx *chain.Tx) bool {
		if len(ctx.PriorityAddresses) > 0 && tx.TouchesAny(ctx.PriorityAddresses) {
			return true
		}
		return ctx.Accelerated != nil && ctx.Accelerated(tx.ID)
	}
	var forced []*mempool.Entry
	seen := make(map[chain.TxID]bool)
	add := func(e *mempool.Entry) {
		if !seen[e.Tx.ID] {
			seen[e.Tx.ID] = true
			forced = append(forced, e)
		}
	}
	for _, e := range entries {
		if !match(e.Tx) {
			continue
		}
		for _, anc := range e.Ancestors() {
			add(anc)
		}
		add(e)
	}
	return forced
}

func (p *Pool) ensureBehavior(b Behavior) {
	for _, have := range p.Behaviors {
		if have.Name() == b.Name() {
			return
		}
	}
	p.Behaviors = append(p.Behaviors, b)
}

// BuildBlock assembles a block at the given height and time from the pool's
// mempool view, applying the pool's template policy and behaviours, and
// paying the reward to one of the pool's wallets. capacity is the block
// body budget in vbytes; pass chain.MaxBlockVSize for mainnet-sized blocks
// or 0 to default to it.
//
// Deviant behaviours act at two levels. Selection: transactions the pool
// favours (its own, a partner's, or dark-fee accelerated ones) are forced
// into the block even when their public fee-rate would not win a slot, and
// blacklisted transactions never enter the template. Ordering: the
// behaviours' Apply hooks then place the favoured transactions at the top
// of the block.
//
// The block is a function of the entry set: the order of entries does not
// change it.
func (p *Pool) BuildBlock(height int64, now time.Time, entries []*mempool.Entry, prevHash [32]byte, capacity int64) *chain.Block {
	policy := p.Policy
	if policy == nil {
		policy = gbt.AncestorScore{}
	}
	if capacity <= 0 || capacity > chain.MaxBlockVSize {
		capacity = chain.MaxBlockVSize
	}
	// Reserve room for the coinbase.
	const coinbaseVSize = 120
	bodyCapacity := capacity - coinbaseVSize
	ctx := &Context{
		Height:            height,
		PriorityAddresses: p.PriorityAddresses,
		Accelerated:       p.Accelerated,
		Blacklist:         p.Blacklist,
	}
	if len(p.Blacklist) > 0 {
		kept := make([]*mempool.Entry, 0, len(entries))
	entryLoop:
		for _, e := range entries {
			if e.Tx.TouchesAny(p.Blacklist) {
				continue
			}
			// A descendant of a censored transaction cannot confirm either.
			for _, anc := range e.Ancestors() {
				if anc.Tx.TouchesAny(p.Blacklist) {
					continue entryLoop
				}
			}
			kept = append(kept, e)
		}
		entries = kept
	}
	var tpl gbt.Template
	if forced := p.forcedEntries(entries, ctx); len(forced) > 0 {
		// Favoured transactions (and the ancestors they need) jump the
		// queue: they occupy capacity first, fee-rate ordered among
		// themselves, and the honest policy fills what remains.
		forcedTpl := gbt.FeeRate{}.Build(forced, bodyCapacity)
		inForced := make(map[chain.TxID]bool, len(forcedTpl.Txs))
		for _, tx := range forcedTpl.Txs {
			inForced[tx.ID] = true
		}
		rest := make([]*mempool.Entry, 0, len(entries))
		for _, e := range entries {
			if !inForced[e.Tx.ID] {
				rest = append(rest, e)
			}
		}
		base := policy.Build(rest, bodyCapacity-forcedTpl.VSize)
		tpl = gbt.Template{
			Txs:      append(forcedTpl.Txs, base.Txs...),
			TotalFee: forcedTpl.TotalFee + base.TotalFee,
			VSize:    forcedTpl.VSize + base.VSize,
		}
	} else {
		tpl = policy.Build(entries, bodyCapacity)
	}
	for _, b := range p.Behaviors {
		tpl = b.Apply(tpl, ctx)
	}
	cb := &chain.Tx{
		VSize:       coinbaseVSize,
		Time:        now,
		Outputs:     []chain.TxOut{{Address: p.Wallets.Pick(uint64(height)), Value: chain.Subsidy(height) + tpl.TotalFee}},
		CoinbaseTag: fmt.Sprintf("%sMined by %s", p.Marker, p.Name),
	}
	cb.ComputeID()
	b := &chain.Block{
		Height: height,
		Time:   now,
		Txs:    append([]*chain.Tx{cb}, tpl.Txs...),
	}
	b.ComputeHash(prevHash)
	return b
}
