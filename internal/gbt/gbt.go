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
	// template not exceeding maxVSize virtual bytes.
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
	heapIndex int // -1 when not queued
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
func (h scoreHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIndex = i
	h[j].heapIndex = j
}
func (h *scoreHeap) Push(x any) {
	n := x.(*node)
	n.heapIndex = len(*h)
	*h = append(*h, n)
}
func (h *scoreHeap) Pop() any {
	old := *h
	n := old[len(old)-1]
	n.heapIndex = -1
	*h = old[:len(old)-1]
	return n
}

// buildGraph constructs scheduling nodes for all entries with the given
// scoring function.
func buildGraph(entries []*mempool.Entry, score func(*mempool.Entry) float64) []*node {
	byID := make(map[chain.TxID]*node, len(entries))
	nodes := make([]*node, 0, len(entries))
	for _, e := range entries {
		n := &node{entry: e, score: score(e), tieBreak: e.Tx.ID, heapIndex: -1}
		byID[e.Tx.ID] = n
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		for _, p := range n.entry.Parents() {
			if pn := byID[p.Tx.ID]; pn != nil {
				pn.children = append(pn.children, n)
				n.blockedBy++
			}
		}
	}
	return nodes
}

// greedyBuild runs Kahn's algorithm with a max-heap: the highest-scoring
// dependency-free transaction is taken next, so the resulting order is the
// policy's ranking subject to parents-before-children. Transactions that do
// not fit are excluded together with their descendants.
func greedyBuild(nodes []*node, maxVSize int64) Template {
	var h scoreHeap
	for _, n := range nodes {
		if n.blockedBy == 0 {
			heap.Push(&h, n)
		}
	}
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
	for h.Len() > 0 {
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
	return greedyBuild(buildGraph(entries, score), maxVSize)
}

// FeeRate is the paper's norm: greedy selection and ordering by raw
// fee-per-vbyte.
type FeeRate struct{}

// Name implements Policy.
func (FeeRate) Name() string { return "feerate" }

// Build implements Policy.
func (FeeRate) Build(entries []*mempool.Entry, maxVSize int64) Template {
	nodes := buildGraph(entries, func(e *mempool.Entry) float64 {
		return float64(e.Tx.FeeRate())
	})
	return greedyBuild(nodes, maxVSize)
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
	nodes := buildGraph(entries, func(e *mempool.Entry) float64 {
		return PriorityScore(e.Tx)
	})
	return greedyBuild(nodes, maxVSize)
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
func (AncestorScore) Build(entries []*mempool.Entry, maxVSize int64) Template {
	type pkgNode struct {
		entry    *mempool.Entry
		selected bool
		excluded bool
	}
	byID := make(map[chain.TxID]*pkgNode, len(entries))
	for _, e := range entries {
		byID[e.Tx.ID] = &pkgNode{entry: e}
	}
	// package computes the unselected ancestor closure including self,
	// returning members in parents-first order.
	pack := func(n *pkgNode) (members []*pkgNode, fee chain.Amount, vsize int64, ok bool) {
		seen := map[chain.TxID]bool{}
		var visit func(*pkgNode) bool
		visit = func(cur *pkgNode) bool {
			if cur.excluded {
				return false
			}
			if cur.selected || seen[cur.entry.Tx.ID] {
				return true
			}
			seen[cur.entry.Tx.ID] = true
			for _, p := range cur.entry.Parents() {
				pn := byID[p.Tx.ID]
				if pn == nil {
					continue
				}
				if !visit(pn) {
					return false
				}
			}
			members = append(members, cur)
			fee += cur.entry.Tx.Fee
			vsize += cur.entry.Tx.VSize
			return true
		}
		if !visit(n) {
			return nil, 0, 0, false
		}
		return members, fee, vsize, true
	}

	// Lazy max-heap over candidate scores; staleness is detected by
	// recomputing the package on pop.
	h := &candHeap{}
	pushCand := func(n *pkgNode) {
		if n.selected || n.excluded {
			return
		}
		_, fee, vsize, ok := pack(n)
		if !ok || vsize == 0 {
			return
		}
		heap.Push(h, candidate{node: n, score: float64(fee) / float64(vsize), id: n.entry.Tx.ID})
	}
	for _, e := range entries {
		pushCand(byID[e.Tx.ID])
	}

	var t Template
	for h.Len() > 0 {
		c := heap.Pop(h).(candidate)
		n := c.node.(*pkgNode)
		if n.selected || n.excluded {
			continue
		}
		members, fee, vsize, ok := pack(n)
		if !ok {
			continue
		}
		// Stale score (an ancestor was selected since push): re-queue with
		// the fresh score.
		fresh := float64(fee) / float64(vsize)
		if fresh != c.score {
			heap.Push(h, candidate{node: n, score: fresh, id: c.id})
			continue
		}
		if t.VSize+vsize > maxVSize {
			// Package does not fit. Exclude only this candidate; smaller
			// packages may still fit.
			n.excluded = true
			continue
		}
		for _, m := range members {
			m.selected = true
			t.Txs = append(t.Txs, m.entry.Tx)
			t.TotalFee += m.entry.Tx.Fee
			t.VSize += m.entry.Tx.VSize
		}
		// Descendants of newly selected members now have smaller packages
		// and therefore different (usually higher) scores; re-queue them.
		for _, m := range members {
			for _, ch := range m.entry.Children() {
				if cn := byID[ch.Tx.ID]; cn != nil {
					pushCand(cn)
				}
			}
		}
	}
	return t
}

// candidate is one ancestor-score heap element. The node is held as an
// opaque pointer because the pkgNode type is local to Build.
type candidate struct {
	node  any
	score float64
	id    chain.TxID
}

// candHeap is a max-heap of ancestor-score candidates.
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
