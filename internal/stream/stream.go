// Package stream is the one apply path of a streaming data set. A Set owns
// the set's incremental index (per-source ledger included), fingerprint,
// watermark, and counters, and Set.Apply holds the only copy of the rule
// that turns decoded blocks and mempool snapshots into audit state:
//
//   - blocks first, in order; the first failing block stops the batch and
//     the batch's snapshots are skipped;
//   - a snapshot's zero first-seen time falls back to the snapshot's time;
//   - a snapshot's own source overrides the batch source, and an empty
//     source is anonymous;
//   - the fingerprint rotates per block (h=, hash) and per snapshot
//     (snap t=…[ src=…], tip= n=).
//
// chainauditd's ingest and WAL recovery (internal/serve) and the in-process
// observer sink (internal/observer) all apply through it. The Set reads
// time only through its caller's clock, for the watermark; result bytes
// never depend on it.
package stream

import (
	"fmt"
	"sync"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/dataset"
	"chainaudit/internal/index"
	"chainaudit/internal/obs"
	"chainaudit/internal/poolid"
)

// mAppend times each block's index append on every apply path.
var mAppend = obs.Default.Timer("stream.append")

// Seen is one pending transaction's first sighting. A zero At means the
// observer gave no time of its own; Apply uses the snapshot's Time. It is
// the index's own sighting type, so a snapshot merges without a copy.
type Seen = index.Seen

// Snapshot is one decoded mempool observation.
type Snapshot struct {
	Time      time.Time
	TipHeight int64
	// Source attributes the observation to a vantage point; empty inherits
	// the batch source.
	Source string
	// Count is the frame's transaction count, the fingerprint's n= key; it
	// includes pending IDs a decoder dropped as unparseable.
	Count int
	Seen  []Seen
}

// Batch is one decoded ingest batch.
type Batch struct {
	Source    string // default vantage point of the snapshots; empty is anonymous
	Blocks    []*chain.Block
	Snapshots []Snapshot
}

// State is the progress a Set carries beside its index: what a checkpoint
// records and a restore resumes.
type State struct {
	Fingerprint string
	// Appends and Snapshots count everything ever applied; LastHeight is
	// meaningful once Appends > 0; Txs counts applied body transactions.
	Appends    int64
	Snapshots  int64
	LastHeight int64
	Txs        int64
}

// Progress is what one Apply did and where the set stands after it — the
// fields an ingest response reports.
type Progress struct {
	Fingerprint string
	Appended    int
	Snapshots   int
	IndexLen    int
	// Height is the watermark height, nil before the first append.
	Height *int64
}

// Set is one streaming data set. Its embedded RWMutex is the set's only
// lock: audits hold it for reading and appliers for writing. Every method
// other than the lock's expects the caller to hold it.
type Set struct {
	sync.RWMutex
	ix         *index.BlockIndex
	now        func() time.Time
	st         State
	lastAppend time.Time
}

// New returns an empty set named name over ix. now stamps the watermark's
// last-append time.
func New(name string, ix *index.BlockIndex, now func() time.Time) *Set {
	return &Set{ix: ix, now: now, st: State{Fingerprint: obs.ConfigHash("stream", name, "empty")}}
}

// Restore returns a set over a restored index that resumes st. A set that
// had appended reports its restore time as the last append.
func Restore(ix *index.BlockIndex, st State, now func() time.Time) *Set {
	s := &Set{ix: ix, now: now, st: st}
	if st.Appends > 0 {
		s.lastAppend = now()
	}
	return s
}

// NewIndex returns the empty index a streaming set grows: frames carry a
// chain CSV's single-edge transactions, so blocks append through
// dataset.AppendLoose, and a positive retain bounds the retained records.
func NewIndex(retain int) *index.BlockIndex {
	return index.NewIncremental(poolid.DefaultRegistry(), indexOptions(retain)...)
}

// RestoreIndex rebuilds a streaming set's index from checkpointed state,
// with the options NewIndex uses.
func RestoreIndex(st index.RestoreState, retain int) (*index.BlockIndex, error) {
	return index.RestoreIncremental(poolid.DefaultRegistry(), st, indexOptions(retain)...)
}

func indexOptions(retain int) []index.Option {
	return []index.Option{index.WithAppender(dataset.AppendLoose), index.WithRetention(retain)}
}

// Index returns the set's index.
func (s *Set) Index() *index.BlockIndex { return s.ix }

// State returns the set's progress.
func (s *Set) State() State { return s.st }

// Watermark reports the last applied height and when it was applied; ok is
// false before the first append.
func (s *Set) Watermark() (height int64, last time.Time, ok bool) {
	if s.st.Appends == 0 {
		return 0, time.Time{}, false
	}
	return s.st.LastHeight, s.lastAppend, true
}

// Progress reports where the set stands, with nothing applied.
func (s *Set) Progress() Progress {
	p := Progress{Fingerprint: s.st.Fingerprint, IndexLen: s.ix.Len()}
	if s.st.Appends > 0 {
		h := s.st.LastHeight
		p.Height = &h
	}
	return p
}

// Covered reports whether the batch's first block is at or below the
// watermark height. Such a batch applies nothing: chain contiguity fails
// its first append, so Apply returns that error and skips the snapshots.
// A caller that logs batches write-ahead answers it without logging it.
func (s *Set) Covered(b *Batch) bool {
	return len(b.Blocks) > 0 && s.st.Appends > 0 && b.Blocks[0].Height <= s.st.LastHeight
}

// Apply applies one batch under the rule in the package doc. On a failing
// block it returns that block's error; the blocks applied before it stay
// and the Progress counts them.
func (s *Set) Apply(b *Batch) (Progress, error) {
	appended, snapshots := 0, 0
	var err error
	for _, blk := range b.Blocks {
		stop := mAppend.Time()
		_, err = s.ix.AppendBlock(blk)
		stop()
		if err != nil {
			break
		}
		s.st.Appends++
		s.st.LastHeight = blk.Height
		s.st.Txs += int64(len(blk.Body()))
		s.st.Fingerprint = obs.ConfigHash(s.st.Fingerprint, fmt.Sprintf("h=%d", blk.Height), fmt.Sprintf("%x", blk.Hash))
		s.lastAppend = s.now()
		appended++
	}
	if err == nil {
		for i := range b.Snapshots {
			s.observe(&b.Snapshots[i], b.Source)
			snapshots++
		}
	}
	p := s.Progress()
	p.Appended, p.Snapshots = appended, snapshots
	return p, err
}

// observe merges one snapshot into the first-seen ledger and rotates the
// fingerprint. Snapshots change audit-visible state (first-seen times feed
// the dark-fee and violation audits), so they rotate it like appends do;
// attribution feeds the divergence ledger, so an attributed snapshot keys
// its source in, while the unattributed key keeps v1 streams'
// fingerprints.
func (s *Set) observe(sn *Snapshot, batchSource string) {
	src := sn.Source
	if src == "" {
		src = batchSource
	}
	s.ix.ObserveSeen(src, sn.Seen, sn.Time)
	key := fmt.Sprintf("snap t=%d", sn.Time.UnixNano())
	if src != "" && src != index.SourceAnonymous {
		key = fmt.Sprintf("snap t=%d src=%s", sn.Time.UnixNano(), src)
	}
	s.st.Fingerprint = obs.ConfigHash(s.st.Fingerprint, key, fmt.Sprintf("tip=%d n=%d", sn.TipHeight, sn.Count))
	s.st.Snapshots++
}
