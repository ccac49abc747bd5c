// Package gbt builds block templates from a mempool, modelling the
// GetBlockTemplate mining protocol whose shared implementation is the source
// of the paper's prioritization norms (§2.1):
//
//   - FeeRate: the greedy fee-per-vbyte ranking the paper audits against
//     (norms I and II).
//   - AncestorScore: Bitcoin Core's CPFP-aware package selection (0.12+),
//     which ranks a transaction by the fee-rate of the package formed with
//     its unconfirmed ancestors.
//   - Priority: the legacy pre-April-2016 coin-age priority ordering that
//     Figure 1 contrasts against the fee-rate era.
//
// All policies respect intra-mempool dependencies: a child is never placed
// before its parent.
package gbt

import (
	"container/heap"

	"chainaudit/internal/chain"
	"chainaudit/internal/mempool"
)

// Template is an ordered transaction selection for a new block. The
// coinbase is not included; miners prepend their own.
type Template struct {
	Txs      []*chain.Tx
	TotalFee chain.Amount
	VSize    int64
}

// Policy selects and orders transactions for inclusion in a block template.
type Policy interface {
	// Name identifies the policy in reports and benches.
	Name() string
	// Build selects transactions from the entries (a mempool view) into a
	// template not exceeding maxVSize virtual bytes. The template must be a
	// function of the entry set: the simulator hands miners an unsorted
	// view, so an order-dependent policy would make runs irreproducible.
	Build(entries []*mempool.Entry, maxVSize int64) Template
}

// node is the per-entry scheduling state shared by the greedy policies.
type node struct {
	entry    *mempool.Entry
	score    float64
	tieBreak chain.TxID
	// blockedBy counts unselected in-pool parents.
	blockedBy int
	children  []*node
	excluded  bool
}

// scoreHeap is a max-heap over ready nodes keyed by score (ties broken by
// ID for determinism).
type scoreHeap []*node

func (h scoreHeap) Len() int { return len(h) }
func (h scoreHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return h[i].tieBreak.Less(h[j].tieBreak)
}
func (h scoreHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *scoreHeap) Push(x any)   { *h = append(*h, x.(*node)) }
func (h *scoreHeap) Pop() any {
	old := *h
	n := old[len(old)-1]
	*h = old[:len(old)-1]
	return n
}

// buildGraph constructs scheduling nodes for all entries with the given
// scoring function.
func buildGraph(entries []*mempool.Entry, score func(*mempool.Entry) float64) []node {
	nodes := make([]node, len(entries))
	byEntry := make(map[*mempool.Entry]*node, len(entries))
	for i, e := range entries {
		nodes[i] = node{entry: e, score: score(e), tieBreak: e.Tx.ID}
		byEntry[e] = &nodes[i]
	}
	for i := range nodes {
		n := &nodes[i]
		for _, p := range n.entry.Parents() {
			if pn := byEntry[p]; pn != nil {
				pn.children = append(pn.children, n)
				n.blockedBy++
			}
		}
	}
	return nodes
}

// minVSize returns the smallest transaction vsize among the entries, or 0
// when there are none. Once the room left in a template is below it,
// nothing more can fit: every greedy step places one transaction, and every
// ancestor package is at least as large as its own transaction.
func minVSize(entries []*mempool.Entry) int64 {
	var least int64
	for i, e := range entries {
		if i == 0 || e.Tx.VSize < least {
			least = e.Tx.VSize
		}
	}
	return least
}

// greedyBuild runs Kahn's algorithm with a max-heap: the highest-scoring
// dependency-free transaction is taken next, so the resulting order is the
// policy's ranking subject to parents-before-children. Transactions that do
// not fit are excluded together with their descendants. The heap orders by
// (score, ID), a total order, so the template is a function of the entry
// set, not of the entries' order; the build stops as soon as no transaction
// could fit in the room left (see minVSize).
func greedyBuild(nodes []node, maxVSize, least int64) Template {
	var h scoreHeap
	for i := range nodes {
		if nodes[i].blockedBy == 0 {
			h = append(h, &nodes[i])
		}
	}
	heap.Init(&h)
	var t Template
	var exclude func(*node)
	exclude = func(n *node) {
		if n.excluded {
			return
		}
		n.excluded = true
		for _, c := range n.children {
			exclude(c)
		}
	}
	for h.Len() > 0 && maxVSize-t.VSize >= least {
		n := heap.Pop(&h).(*node)
		if n.excluded {
			continue
		}
		tx := n.entry.Tx
		if t.VSize+tx.VSize > maxVSize {
			// Does not fit: exclude it and everything depending on it, but
			// keep packing smaller transactions.
			exclude(n)
			continue
		}
		t.Txs = append(t.Txs, tx)
		t.TotalFee += tx.Fee
		t.VSize += tx.VSize
		for _, c := range n.children {
			if c.excluded {
				continue
			}
			c.blockedBy--
			if c.blockedBy == 0 {
				heap.Push(&h, c)
			}
		}
	}
	return t
}

// BuildWithScore runs the greedy dependency-respecting template builder
// with an arbitrary per-entry score: the highest-scoring transaction whose
// in-pool parents are already placed goes next. It is the extension point
// custom prioritization norms (package norms) plug into.
func BuildWithScore(entries []*mempool.Entry, maxVSize int64, score func(*mempool.Entry) float64) Template {
	return greedyBuild(buildGraph(entries, score), maxVSize, minVSize(entries))
}

// FeeRate is the paper's norm: greedy selection and ordering by raw
// fee-per-vbyte.
type FeeRate struct{}

// Name implements Policy.
func (FeeRate) Name() string { return "feerate" }

// Build implements Policy.
func (FeeRate) Build(entries []*mempool.Entry, maxVSize int64) Template {
	return BuildWithScore(entries, maxVSize, func(e *mempool.Entry) float64 {
		return float64(e.Tx.FeeRate())
	})
}

// Priority is the legacy pre-April-2016 ordering: coin-age priority
// Σ(input value × input age) / vsize. Input ages are not tracked by the
// simplified ledger, so each input's age is derived deterministically from
// the outpoint it spends (a stable stand-in with the property that matters
// for Figure 1: the ranking is essentially independent of the fee-rate).
type Priority struct{}

// Name implements Policy.
func (Priority) Name() string { return "priority" }

// Build implements Policy.
func (Priority) Build(entries []*mempool.Entry, maxVSize int64) Template {
	return BuildWithScore(entries, maxVSize, func(e *mempool.Entry) float64 {
		return PriorityScore(e.Tx)
	})
}

// PriorityScore computes the legacy coin-age priority of a transaction.
func PriorityScore(tx *chain.Tx) float64 {
	if tx.VSize <= 0 {
		return 0
	}
	var sum float64
	for _, in := range tx.Inputs {
		sum += float64(in.Value) * float64(pseudoAge(in.PrevOut))
	}
	return sum / float64(tx.VSize)
}

// pseudoAge derives a deterministic input age in blocks (1..1000) from the
// outpoint identity.
func pseudoAge(op chain.OutPoint) int64 {
	var acc uint64 = 1469598103934665603 // FNV-1a offset basis
	for _, b := range op.TxID {
		acc ^= uint64(b)
		acc *= 1099511628211
	}
	acc ^= uint64(op.Index)
	acc *= 1099511628211
	return int64(acc%1000) + 1
}

// AncestorScore models Bitcoin Core's post-0.12 selection: a transaction is
// ranked by the aggregate fee-rate of the package consisting of itself and
// its unselected in-pool ancestors, and the whole package is admitted
// together (ancestors first). This is what makes CPFP effective.
type AncestorScore struct{}

// Name implements Policy.
func (AncestorScore) Name() string { return "ancestorscore" }

// Build implements Policy.
//
// Candidates are queued once, then lazily: a popped candidate whose package
// has shrunk since it was queued (an ancestor was selected meanwhile) is
// re-queued with its fresh score, and only the children of newly selected
// members are re-queued eagerly. The template depends on exactly that rule.
func (AncestorScore) Build(entries []*mempool.Entry, maxVSize int64) Template {
	b := newPackBuilder(entries)
	h := make(candHeap, 0, len(entries))
	for i := range b.nodes {
		if c, ok := b.candidate(&b.nodes[i]); ok {
			h = append(h, c)
		}
	}
	heap.Init(&h)
	pushCand := func(n *pkgNode) {
		if c, ok := b.candidate(n); ok {
			heap.Push(&h, c)
		}
	}

	least := minVSize(entries)
	var t Template
	var selected []*pkgNode
	for h.Len() > 0 && maxVSize-t.VSize >= least {
		c := heap.Pop(&h).(candidate)
		n := c.node
		if n.selected || n.excluded {
			continue
		}
		fee, vsize, ok := b.pack(n)
		if !ok {
			continue
		}
		// Stale score (an ancestor was selected since push): re-queue with
		// the fresh score.
		fresh := float64(fee) / float64(vsize)
		if fresh != c.score {
			heap.Push(&h, candidate{node: n, score: fresh, id: c.id})
			continue
		}
		if t.VSize+vsize > maxVSize {
			// Package does not fit. Exclude only this candidate; smaller
			// packages may still fit.
			n.excluded = true
			continue
		}
		selected = append(selected[:0], b.members...)
		for _, m := range selected {
			m.selected = true
			t.Txs = append(t.Txs, m.entry.Tx)
			t.TotalFee += m.entry.Tx.Fee
			t.VSize += m.entry.Tx.VSize
		}
		// Descendants of newly selected members now have smaller packages
		// and therefore different (usually higher) scores; re-queue them.
		for _, m := range selected {
			for _, ch := range m.entry.Children() {
				if cn := b.byEntry[ch]; cn != nil {
					pushCand(cn)
				}
			}
		}
	}
	return t
}

// pkgNode is one entry's ancestor-score state.
type pkgNode struct {
	entry *mempool.Entry
	// parents are the node's in-pool parents among the entries given, in
	// the entry's Parents order.
	parents  []*pkgNode
	selected bool
	excluded bool
	// visited is the pack generation that last reached the node.
	visited uint64
}

// packBuilder holds one AncestorScore build's nodes and the scratch state
// its package walks reuse.
type packBuilder struct {
	nodes []pkgNode
	// byEntry finds an entry's node. It is keyed by the pool's entry
	// pointers, which Parents and Children return, since hashing a pointer
	// costs a fraction of hashing a TxID.
	byEntry map[*mempool.Entry]*pkgNode
	// gen numbers pack calls; a node whose visited equals gen is already a
	// member of the package being walked.
	gen uint64
	// members is the last pack's package, parents first. Each pack
	// overwrites it.
	members []*pkgNode
}

func newPackBuilder(entries []*mempool.Entry) *packBuilder {
	b := &packBuilder{
		nodes:   make([]pkgNode, len(entries)),
		byEntry: make(map[*mempool.Entry]*pkgNode, len(entries)),
	}
	for i, e := range entries {
		b.nodes[i].entry = e
		b.byEntry[e] = &b.nodes[i]
	}
	for i := range b.nodes {
		n := &b.nodes[i]
		for _, p := range n.entry.Parents() {
			if pn := b.byEntry[p]; pn != nil {
				n.parents = append(n.parents, pn)
			}
		}
	}
	return b
}

// candidate scores n's current package for the heap. It reports false for
// a selected or excluded node, and for a package that is blocked by an
// excluded ancestor or has no size.
func (b *packBuilder) candidate(n *pkgNode) (candidate, bool) {
	if n.selected || n.excluded {
		return candidate{}, false
	}
	var fee chain.Amount
	var vsize int64
	if len(n.parents) == 0 {
		// A root's package is itself: skip the walk.
		fee, vsize = n.entry.Tx.Fee, n.entry.Tx.VSize
	} else {
		var ok bool
		if fee, vsize, ok = b.pack(n); !ok {
			return candidate{}, false
		}
	}
	if vsize == 0 {
		return candidate{}, false
	}
	return candidate{node: n, score: float64(fee) / float64(vsize), id: n.entry.Tx.ID}, true
}

// pack computes n's unselected ancestor closure including n into
// b.members, parents first, and returns its fee and vsize. It reports
// false when an excluded ancestor blocks the package.
func (b *packBuilder) pack(n *pkgNode) (fee chain.Amount, vsize int64, ok bool) {
	b.gen++
	b.members = b.members[:0]
	if !b.visit(n) {
		return 0, 0, false
	}
	for _, m := range b.members {
		fee += m.entry.Tx.Fee
		vsize += m.entry.Tx.VSize
	}
	return fee, vsize, true
}

// visit appends cur's unvisited, unselected ancestors and then cur itself
// to b.members. It reports false when it reaches an excluded node.
func (b *packBuilder) visit(cur *pkgNode) bool {
	if cur.excluded {
		return false
	}
	if cur.selected || cur.visited == b.gen {
		return true
	}
	cur.visited = b.gen
	for _, p := range cur.parents {
		if !b.visit(p) {
			return false
		}
	}
	b.members = append(b.members, cur)
	return true
}

// candidate is one ancestor-score heap element. A node may be queued more
// than once, under different scores; the pop-time staleness check discards
// all but the current one.
type candidate struct {
	node  *pkgNode
	score float64
	id    chain.TxID
}

// candHeap is a max-heap of ancestor-score candidates ordered by (score,
// ID), a total order: the build's pops, and so its template, do not depend
// on the entries' order.
type candHeap []candidate

func (h candHeap) Len() int { return len(h) }
func (h candHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return h[i].id.Less(h[j].id)
}
func (h candHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x any)   { *h = append(*h, x.(candidate)) }
func (h *candHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
