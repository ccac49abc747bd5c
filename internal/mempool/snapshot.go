package mempool

import (
	"time"

	"chainaudit/internal/chain"
)

// SnapshotInterval is the paper's snapshot cadence: one mempool capture
// every 15 seconds.
const SnapshotInterval = 15 * time.Second

// CongestionLevel classifies mempool size relative to block capacity
// (§4.1.2): below 1 MB there is no congestion; the paper's bins above that
// are (1,2] MB, (2,4] MB, and >4 MB.
type CongestionLevel int

// Congestion levels in ascending order of backlog.
const (
	CongestionNone CongestionLevel = iota // <= 1 MB
	CongestionLow                         // (1, 2] MB
	CongestionMid                         // (2, 4] MB
	CongestionHigh                        // > 4 MB
)

// String names the congestion level the way the paper's figures label it.
func (c CongestionLevel) String() string {
	switch c {
	case CongestionNone:
		return "<=1MB"
	case CongestionLow:
		return "(1,2]MB"
	case CongestionMid:
		return "(2,4]MB"
	case CongestionHigh:
		return ">4MB"
	default:
		return "invalid"
	}
}

// CongestionAt classifies a total pending vsize against an arbitrary block
// capacity (the simulations scale block capacity down; the bins scale with
// it).
func CongestionAt(totalVSize, capacity int64) CongestionLevel {
	if capacity <= 0 {
		capacity = chain.MaxBlockVSize
	}
	switch {
	case totalVSize <= 1*capacity:
		return CongestionNone
	case totalVSize <= 2*capacity:
		return CongestionLow
	case totalVSize <= 4*capacity:
		return CongestionMid
	default:
		return CongestionHigh
	}
}

// SnapshotTx is one pending transaction captured by a snapshot.
type SnapshotTx struct {
	Tx        *chain.Tx
	FirstSeen time.Time
}

// Snapshot is a point-in-time capture of a node's mempool. Summary-only
// snapshots (Txs == nil) are cheap and taken every 15 seconds; full
// snapshots retain the transaction set for pairwise analyses.
type Snapshot struct {
	Time       time.Time
	Count      int
	TotalVSize int64
	TipHeight  int64
	// Capacity is the block capacity the snapshot's congestion is judged
	// against; zero means mainnet (1 MB).
	Capacity int64
	Txs      []SnapshotTx
}

// Full reports whether the snapshot retains its transaction set.
func (s *Snapshot) Full() bool { return s.Txs != nil }

// Summary captures counts only.
func (p *Pool) Summary(now time.Time, tipHeight int64) Snapshot {
	return Snapshot{
		Time:       now,
		Count:      p.Len(),
		TotalVSize: p.TotalVSize(),
		TipHeight:  tipHeight,
		Capacity:   p.capacity,
	}
}

// Capture takes a full snapshot including the pending transaction set in
// deterministic order.
func (p *Pool) Capture(now time.Time, tipHeight int64) Snapshot {
	s := p.Summary(now, tipHeight)
	entries := p.Entries()
	s.Txs = make([]SnapshotTx, len(entries))
	for i, e := range entries {
		s.Txs[i] = SnapshotTx{Tx: e.Tx, FirstSeen: e.FirstSeen}
	}
	return s
}

// Gap is a hole in a snapshot series: a span where the capture cadence says
// snapshots should exist but none do — the signature of a monitoring-node
// outage. Snapshots inside a gap are explicitly absent, never zero-filled;
// downstream statistics must skip the span and report reduced coverage.
type Gap struct {
	// Start is the last snapshot before the hole; End is the first after.
	Start, End time.Time
	// Missed is the number of cadence slots with no snapshot in (Start, End).
	Missed int
}

// FindGaps scans a time-ordered snapshot series for holes of at least one
// interval. A spacing is a gap when it exceeds 1.5x the cadence, tolerating
// normal jitter while catching every true missed slot.
func FindGaps(snaps []Snapshot, interval time.Duration) []Gap {
	if interval <= 0 {
		interval = SnapshotInterval
	}
	var gaps []Gap
	for i := 1; i < len(snaps); i++ {
		d := snaps[i].Time.Sub(snaps[i-1].Time)
		if d > interval+interval/2 {
			gaps = append(gaps, Gap{
				Start:  snaps[i-1].Time,
				End:    snaps[i].Time,
				Missed: int(d/interval) - 1,
			})
		}
	}
	return gaps
}

// SplitAtGaps cuts a time-ordered snapshot series into contiguous segments
// at every gap FindGaps reports. A series with no gaps comes back as one
// segment sharing the input's backing array, so gap-unaware consumers pay
// nothing. Plotting code draws each segment as its own series so holes stay
// holes instead of being bridged or zero-filled.
func SplitAtGaps(snaps []Snapshot, interval time.Duration) [][]Snapshot {
	if len(snaps) == 0 {
		return nil
	}
	if interval <= 0 {
		interval = SnapshotInterval
	}
	segs := [][]Snapshot{}
	start := 0
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Time.Sub(snaps[i-1].Time) > interval+interval/2 {
			segs = append(segs, snaps[start:i])
			start = i
		}
	}
	return append(segs, snaps[start:])
}
