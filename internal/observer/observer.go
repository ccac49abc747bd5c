// Package observer is the live half of the streaming pipeline (DESIGN.md
// §12): it subscribes to an internal/p2p node's accepted blocks and
// first-contact log, batches them into the same ingest frames cmd/streamfeed
// records, and drives them into an audit index — in-process through an
// IndexSink, or over HTTP through an HTTPSink POSTing to a running
// chainauditd's /v1/ingest.
//
// The package sits between two deterministic layers and stays faithful to
// both: a Source yields blocks in accept order with the mempool seen-log
// delta attached, and every sink lands on the one apply rule of
// internal/stream — IndexSink calls stream.Set.Apply in process, and
// HTTPSink ships to chainauditd, whose ingest calls it too. Because
// Batch.Request produces the identical JSON a streamfeed recording holds, a
// live run teed through a RecordSink replays byte-identically — `make
// smoke-live` pins that end to end.
//
// Unlike the simulator, the observer runs on the wall clock (it fronts a
// live p2p node), so it is exempt from the walltime lint; its determinism
// obligation is the weaker, load-bearing one above: same event sequence in,
// same frames out.
package observer

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/obs"
	"chainaudit/internal/p2p"
	"chainaudit/internal/serve"
)

// Observer metrics, exported through the obs registry like every other
// subsystem (GET /v1/metrics when embedded, run manifests otherwise).
var (
	mBlocks     = obs.Default.Counter("observer.blocks")
	mSnapshots  = obs.Default.Counter("observer.snapshots")
	mBatches    = obs.Default.Counter("observer.batches")
	mOutOfOrder = obs.Default.Counter("observer.out_of_order")
	mRetries    = obs.Default.Counter("observer.retries")
	mReconnects = obs.Default.Counter("observer.reconnects")
	mDropped    = obs.Default.Counter("observer.dropped")
	// mResends counts snapshot-preserving re-sends after a covered rejection:
	// the service already held the delivery's leading blocks, so the sink
	// trimmed them and shipped the rest (mempool frames included) again.
	mResends = obs.Default.Counter("observer.resends")
	// mSkipped counts batches skipped entirely because a synced watermark
	// showed the service already holds them (resume after server restart).
	mSkipped = obs.Default.Counter("observer.skipped_covered")
	// mLag is emit-to-ack shipping lag: the time from pulling a batch's first
	// event off the source to the sink acknowledging the batch, in
	// milliseconds. It deliberately measures the observer's own pipeline, not
	// now-minus-block-timestamp (that is serve.ingest.lag_ms, and for replayed
	// or simulated chains block timestamps are in the deep past).
	mLag = obs.Default.Gauge("observer.lag_ms")
	// mBacklog is the depth of the NodeSource's event queue — how far the
	// observer is behind the node it watches.
	mBacklog = obs.Default.Gauge("observer.backlog")
)

// Snapshot is one mempool observation attached to the event stream: the
// first-contact events learned since the previous snapshot, plus the tip the
// observer saw when it looked.
type Snapshot struct {
	Time      time.Time
	TipHeight int64
	Seen      []p2p.SeenEvent
}

// Event is one observation pulled from a Source: an accepted block, a
// mempool snapshot, or both (a block with the seen-log delta that preceded
// it).
type Event struct {
	Block    *chain.Block
	Snapshot *Snapshot
}

// Source yields observation events in order. Next blocks until an event is
// available, the stream ends (io.EOF), or ctx is done.
type Source interface {
	Next(ctx context.Context) (Event, error)
}

// Batch is a run of consecutive events staged for one sink application.
type Batch struct {
	Blocks    []*chain.Block
	Snapshots []*Snapshot
}

func (b *Batch) empty() bool { return len(b.Blocks) == 0 && len(b.Snapshots) == 0 }

// maxHeight returns the highest block height in the batch, or -1.
func (b *Batch) maxHeight() int64 {
	h := int64(-1)
	for _, blk := range b.Blocks {
		if blk.Height > h {
			h = blk.Height
		}
	}
	return h
}

// Request renders the batch as the ingest request handleIngest parses —
// the same frames streamfeed records, so shipping and recording are the
// same bytes by construction. Seen events become snapshot transactions
// carrying their first-contact times; an event with no time ships 0, which
// ingest reads as "use the snapshot time", as IndexSink does.
func (b *Batch) Request(dataset string) serve.IngestRequest {
	req := serve.IngestRequest{Dataset: dataset}
	for _, blk := range b.Blocks {
		req.Blocks = append(req.Blocks, serve.FrameBlock(blk))
	}
	for _, sn := range b.Snapshots {
		sf := serve.SnapshotFrame{TimeNS: sn.Time.UnixNano(), TipHeight: sn.TipHeight}
		for _, ev := range sn.Seen {
			var ns int64
			if !ev.At.IsZero() {
				ns = ev.At.UnixNano()
			}
			sf.Txs = append(sf.Txs, serve.SnapshotTx{ID: ev.TxID.String(), FirstSeenNS: ns})
		}
		req.Mempool = append(req.Mempool, sf)
	}
	return req
}

// Sink applies one batch to an audit target. Apply must be atomic-or-error
// from the observer's point of view: on error the run stops and reports it.
type Sink interface {
	Apply(ctx context.Context, b *Batch) error
}

// Config tunes a Run.
type Config struct {
	// BatchBlocks flushes the staged batch once it holds this many blocks
	// (default 16, matching streamfeed record's batching).
	BatchBlocks int
}

func (c Config) batchBlocks() int {
	if c.BatchBlocks > 0 {
		return c.BatchBlocks
	}
	return 16
}

// Stats summarizes one Run.
type Stats struct {
	Blocks    int
	Snapshots int
	Batches   int
	// Ship holds one emit-to-ack duration per flushed batch, in flush order —
	// the raw series behind the p50/p99 ship latencies String reports;
	// perfbench's live workloads time the same span as ack_p50_ms.
	Ship []time.Duration
}

// Run pulls events from src until io.EOF (or ctx cancellation), stages them
// into batches, and applies each batch through sink. Blocks must arrive in
// strictly increasing height order; a stale or duplicate height — gossip
// redelivery after churn — is dropped and counted rather than poisoning the
// feed, since the ingest side would reject the whole batch for it. The final
// partial batch flushes on EOF.
func Run(ctx context.Context, src Source, sink Sink, cfg Config) (*Stats, error) {
	st := &Stats{}
	var (
		batch      Batch
		batchStart time.Time
		lastHeight int64
		anyBlocks  bool
	)
	flush := func() error {
		if batch.empty() {
			return nil
		}
		if err := sink.Apply(ctx, &batch); err != nil {
			return err
		}
		ship := time.Since(batchStart)
		st.Ship = append(st.Ship, ship)
		st.Batches++
		mBatches.Inc()
		mLag.Set(float64(ship) / float64(time.Millisecond))
		batch = Batch{}
		return nil
	}
	for {
		ev, err := src.Next(ctx)
		if err != nil {
			if errors.Is(err, io.EOF) {
				if ferr := flush(); ferr != nil {
					return st, ferr
				}
				return st, nil
			}
			return st, err
		}
		if batch.empty() {
			batchStart = time.Now()
		}
		if ev.Block != nil {
			if anyBlocks && ev.Block.Height <= lastHeight {
				mOutOfOrder.Inc()
				ev.Block = nil // keep the snapshot: the seen delta is new data
			} else {
				lastHeight = ev.Block.Height
				anyBlocks = true
				batch.Blocks = append(batch.Blocks, ev.Block)
				st.Blocks++
				mBlocks.Inc()
			}
		}
		if ev.Snapshot != nil {
			batch.Snapshots = append(batch.Snapshots, ev.Snapshot)
			st.Snapshots++
			mSnapshots.Inc()
		}
		if len(batch.Blocks) >= cfg.batchBlocks() {
			if err := flush(); err != nil {
				return st, err
			}
		}
	}
}

// ShipQuantile returns the q-quantile (0 ≤ q ≤ 1) of the run's emit-to-ack
// durations by nearest-rank on a sorted copy, or 0 with no batches.
func (st *Stats) ShipQuantile(q float64) time.Duration {
	if len(st.Ship) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), st.Ship...)
	for i := 1; i < len(sorted); i++ { // insertion sort: batch counts are small
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// String renders the stats one-line, for driver logs.
func (st *Stats) String() string {
	return fmt.Sprintf("%d blocks, %d snapshots, %d batches, ship p50=%s p99=%s",
		st.Blocks, st.Snapshots, st.Batches,
		st.ShipQuantile(0.50).Round(time.Microsecond), st.ShipQuantile(0.99).Round(time.Microsecond))
}
