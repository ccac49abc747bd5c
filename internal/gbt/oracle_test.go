package gbt_test

// The full-backlog template builders as they stood before the builds learned
// to stop at a full block: greedyBuild (with its node graph) and
// AncestorScore.Build, copied verbatim apart from an "oracle" prefix on each
// identifier. TestTemplatesMatchOracle holds every policy to them.

import (
	"container/heap"

	"chainaudit/internal/chain"
	"chainaudit/internal/gbt"
	"chainaudit/internal/mempool"
)

// oracleNode is the per-entry scheduling state shared by the greedy policies.
type oracleNode struct {
	entry    *mempool.Entry
	score    float64
	tieBreak chain.TxID
	// blockedBy counts unselected in-pool parents.
	blockedBy int
	children  []*oracleNode
	excluded  bool
	heapIndex int // -1 when not queued
}

// oracleScoreHeap is a max-heap over ready nodes keyed by score (ties broken by
// ID for determinism).
type oracleScoreHeap []*oracleNode

func (h oracleScoreHeap) Len() int { return len(h) }
func (h oracleScoreHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return h[i].tieBreak.Less(h[j].tieBreak)
}
func (h oracleScoreHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIndex = i
	h[j].heapIndex = j
}
func (h *oracleScoreHeap) Push(x any) {
	n := x.(*oracleNode)
	n.heapIndex = len(*h)
	*h = append(*h, n)
}
func (h *oracleScoreHeap) Pop() any {
	old := *h
	n := old[len(old)-1]
	n.heapIndex = -1
	*h = old[:len(old)-1]
	return n
}

// oracleBuildGraph constructs scheduling nodes for all entries with the given
// scoring function.
func oracleBuildGraph(entries []*mempool.Entry, score func(*mempool.Entry) float64) []*oracleNode {
	byID := make(map[chain.TxID]*oracleNode, len(entries))
	nodes := make([]*oracleNode, 0, len(entries))
	for _, e := range entries {
		n := &oracleNode{entry: e, score: score(e), tieBreak: e.Tx.ID, heapIndex: -1}
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

// oracleGreedyBuild runs Kahn's algorithm with a max-heap: the highest-scoring
// dependency-free transaction is taken next, so the resulting order is the
// policy's ranking subject to parents-before-children. Transactions that do
// not fit are excluded together with their descendants.
func oracleGreedyBuild(nodes []*oracleNode, maxVSize int64) gbt.Template {
	var h oracleScoreHeap
	for _, n := range nodes {
		if n.blockedBy == 0 {
			heap.Push(&h, n)
		}
	}
	var t gbt.Template
	var exclude func(*oracleNode)
	exclude = func(n *oracleNode) {
		if n.excluded {
			return
		}
		n.excluded = true
		for _, c := range n.children {
			exclude(c)
		}
	}
	for h.Len() > 0 {
		n := heap.Pop(&h).(*oracleNode)
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

// oracleAncestorScore is AncestorScore.Build.
func oracleAncestorScore(entries []*mempool.Entry, maxVSize int64) gbt.Template {
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
	h := &oracleCandHeap{}
	pushCand := func(n *pkgNode) {
		if n.selected || n.excluded {
			return
		}
		_, fee, vsize, ok := pack(n)
		if !ok || vsize == 0 {
			return
		}
		heap.Push(h, oracleCandidate{node: n, score: float64(fee) / float64(vsize), id: n.entry.Tx.ID})
	}
	for _, e := range entries {
		pushCand(byID[e.Tx.ID])
	}

	var t gbt.Template
	for h.Len() > 0 {
		c := heap.Pop(h).(oracleCandidate)
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
			heap.Push(h, oracleCandidate{node: n, score: fresh, id: c.id})
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

// oracleCandidate is one ancestor-score heap element. The node is held as an
// opaque pointer because the pkgNode type is local to Build.
type oracleCandidate struct {
	node  any
	score float64
	id    chain.TxID
}

// oracleCandHeap is a max-heap of ancestor-score candidates.
type oracleCandHeap []oracleCandidate

func (h oracleCandHeap) Len() int { return len(h) }
func (h oracleCandHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return h[i].id.Less(h[j].id)
}
func (h oracleCandHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleCandHeap) Push(x any)   { *h = append(*h, x.(oracleCandidate)) }
func (h *oracleCandHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
