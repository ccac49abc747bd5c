// Command chainobserver drives the live half of the streaming pipeline
// (DESIGN.md §12): it replays a chain CSV through a two-node p2p network —
// a relay node gossiping transactions and blocks to a watcher node — and
// ships what the watcher observes into an audit target through
// internal/observer.
//
//	chainobserver -chain chain.csv [-url http://127.0.0.1:8347] [-dataset live]
//	              [-batch 16] [-record stream.jsonl] [-chaos spec] [-queue N]
//	              [-timeout d] [-retries n] [-backoff d] [-seed N] [-resume]
//	              [-inprocess] [-retain N] [-window N]
//	              [-sources N] [-source-lag id=dur] [-source-chaos id=spec]
//	              [-source-seed id=N] [-source-minfee id=rate]
//
// By default batches ship over HTTP to a running chainauditd's POST
// /v1/ingest, with retry, seeded-jitter backoff, and idempotent
// redelivery; -record tees every shipped request to a JSONL stream in
// exactly the format `streamfeed replay` consumes, so a live run can be
// replayed afterwards and must audit byte-identically (`make smoke-live`
// pins that). -resume queries the service's recovered ingest watermark
// before feeding and skips batches it already holds — the restart half of
// the durable-streaming loop (`make smoke-crash` pins that end to end).
// -inprocess skips HTTP and applies the feed to an in-process incremental
// index instead, printing the windowed positional audit when done — the
// embedded-auditor deployment shape. -chaos wires an internal/faults plan
// into the relay link and the observer's shipping path: dropped and delayed
// gossip, duplicate deliveries, and watcher churn (with reconnect) all
// stress the feed while the audit result must stay equal to a clean replay
// of what was recorded.
//
// -sources N (N > 1) runs N independent observation pipelines — each its
// own relay/watcher pair, clock, and fault plan — all feeding one streaming
// set under distinct source IDs s1..sN (DESIGN.md §14). Over HTTP each
// source ships through POST /v2/ingest with its ID as the request's source
// attribution; in-process all sources share one index behind a
// covered-height trim (the in-process mirror of the service's idempotent
// redelivery), and the run ends with the cross-source divergence audit next
// to the positional audit. The repeatable -source-* flags override one
// source's knobs by ID: -source-lag plants a deterministic observation lag
// (the divergence audit's ground truth), -source-chaos replaces the global
// -chaos spec for that source, -source-seed and -source-minfee tune its
// backoff jitter and admission threshold.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/core"
	"chainaudit/internal/dataset"
	"chainaudit/internal/faults"
	"chainaudit/internal/index"
	"chainaudit/internal/observer"
	"chainaudit/internal/p2p"
	"chainaudit/internal/poolid"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "chainobserver:", err)
		os.Exit(1)
	}
}

// feedClock is the injected timestamp source both nodes share: the feeder
// advances it along the replayed chain's own timeline so first-seen events
// carry chain time, not host time.
type feedClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *feedClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *feedClock) set(t time.Time) {
	c.mu.Lock()
	if t.After(c.t) {
		c.t = t
	}
	c.mu.Unlock()
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("chainobserver", flag.ContinueOnError)
	chainPath := fs.String("chain", "", "chain CSV to feed through the p2p pair (required)")
	url := fs.String("url", "http://127.0.0.1:8347", "chainauditd base URL")
	name := fs.String("dataset", "live", "streaming data set name to ship into")
	batch := fs.Int("batch", 16, "blocks per shipped batch")
	record := fs.String("record", "", "tee every shipped request to this JSONL stream")
	chaos := fs.String("chaos", "", "fault-injection spec for the relay link and shipping path (see internal/faults)")
	queue := fs.Int("queue", 4096, "observer event queue depth")
	timeout := fs.Duration("timeout", 10*time.Second, "per-block propagation deadline")
	retries := fs.Int("retries", 0, "HTTP delivery attempts per batch (0 = sink default)")
	backoff := fs.Duration("backoff", 0, "initial HTTP retry backoff, doubling with seeded jitter (0 = sink default)")
	seed := fs.Uint64("seed", 0, "backoff jitter seed (0 = sink default)")
	resume := fs.Bool("resume", false, "sync the service's ingest watermark before feeding and skip covered batches")
	inprocess := fs.Bool("inprocess", false, "apply the feed to an in-process index instead of HTTP")
	retain := fs.Int("retain", 0, "in-process retention horizon in blocks (0 = unbounded)")
	window := fs.Int("window", 0, "in-process: audit window to print when done (0 = all retained)")
	sources := fs.Int("sources", 1, "number of concurrent observation sources (IDs s1..sN; >1 ships with v2 source attribution)")
	srcLag := map[string]time.Duration{}
	fs.Func("source-lag", "per-source observation lag as id=duration (e.g. s2=30s; repeatable)", func(v string) error {
		id, val, err := splitSourceFlag(v)
		if err != nil {
			return err
		}
		d, err := time.ParseDuration(val)
		if err != nil {
			return err
		}
		srcLag[id] = d
		return nil
	})
	srcChaos := map[string]string{}
	fs.Func("source-chaos", "per-source fault spec as id=spec, overriding -chaos for that source (repeatable)", func(v string) error {
		id, val, err := splitSourceFlag(v)
		if err != nil {
			return err
		}
		srcChaos[id] = val
		return nil
	})
	srcSeed := map[string]uint64{}
	fs.Func("source-seed", "per-source backoff jitter seed as id=N (repeatable)", func(v string) error {
		id, val, err := splitSourceFlag(v)
		if err != nil {
			return err
		}
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return err
		}
		srcSeed[id] = n
		return nil
	})
	srcMinFee := map[string]chain.SatPerVByte{}
	fs.Func("source-minfee", "per-source watcher admission threshold as id=rate in sat/vB (repeatable)", func(v string) error {
		id, val, err := splitSourceFlag(v)
		if err != nil {
			return err
		}
		rate, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return err
		}
		srcMinFee[id] = chain.SatPerVByte(rate)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *chainPath == "" {
		return fmt.Errorf("-chain is required")
	}
	if *batch < 1 {
		*batch = 1
	}
	if *sources < 1 {
		return fmt.Errorf("-sources must be at least 1")
	}
	if *sources == 1 && (len(srcLag)+len(srcChaos)+len(srcSeed)+len(srcMinFee)) > 0 {
		return fmt.Errorf("per-source flags require -sources > 1")
	}
	if *sources > 1 {
		if *record != "" {
			return fmt.Errorf("-record is single-source only: record each source in its own run")
		}
		for _, m := range []map[string]bool{sourceIDs(srcLag), sourceIDs(srcChaos), sourceIDs(srcSeed), sourceIDs(srcMinFee)} {
			for id := range m {
				if !validSourceID(id, *sources) {
					return fmt.Errorf("unknown source %q: IDs are s1..s%d", id, *sources)
				}
			}
		}
	}

	f, err := os.Open(*chainPath)
	if err != nil {
		return err
	}
	c, err := dataset.ReadChainCSV(f)
	f.Close()
	if err != nil {
		return err
	}
	if c.Len() == 0 {
		return fmt.Errorf("chain %s is empty", *chainPath)
	}

	if *sources > 1 {
		return runMulti(ctx, out, c, multiConfig{
			sources:   *sources,
			url:       *url,
			dataset:   *name,
			batch:     *batch,
			chaos:     *chaos,
			queue:     *queue,
			timeout:   *timeout,
			retries:   *retries,
			backoff:   *backoff,
			seed:      *seed,
			resume:    *resume,
			inprocess: *inprocess,
			retain:    *retain,
			window:    *window,
			lag:       srcLag,
			chaosBy:   srcChaos,
			seedBy:    srcSeed,
			minFeeBy:  srcMinFee,
		})
	}

	var plan *faults.Plan
	if *chaos != "" {
		if plan, err = faults.ParseSpec(*chaos); err != nil {
			return err
		}
	}

	// The network: relay gossips what "the chain" produces; watcher is the
	// observation vantage point the audit feed comes from. Admission is
	// fully permissive — the feed must carry the chain as-is, including the
	// low-fee inclusions the audits are hunting for.
	clk := &feedClock{t: c.Blocks()[0].Time}
	relay := p2p.NewNode("relay", 0)
	watcher := p2p.NewNode("watcher", 0)
	defer relay.Close()
	defer watcher.Close()
	relay.SetClock(clk.now)
	watcher.SetClock(clk.now)
	relay.SetFaults(plan.P2P(1))
	watcher.SetFaults(plan.P2P(2))
	src := observer.NewNodeSource(watcher, *queue)
	defer src.Close()
	p2p.ConnectPair(relay, watcher)

	// The sink stack, innermost out: HTTP or in-process, optionally teed
	// through a recorder.
	var (
		sink observer.Sink
		hs   *observer.HTTPSink
		ix   *index.BlockIndex
	)
	if *inprocess {
		opts := []index.Option{index.WithAppender(dataset.AppendLoose)}
		if *retain > 0 {
			opts = append(opts, index.WithRetention(*retain))
		}
		ix = index.NewIncremental(poolid.DefaultRegistry(), opts...)
		sink = &observer.IndexSink{Index: ix}
	} else {
		hs = &observer.HTTPSink{
			URL:        *url,
			Dataset:    *name,
			Client:     &http.Client{Timeout: time.Minute},
			MaxRetries: *retries,
			Backoff:    *backoff,
			Seed:       *seed,
			Faults:     plan.P2P(3),
		}
		if *resume {
			wm, ok, err := hs.SyncWatermark(ctx)
			if err != nil {
				return fmt.Errorf("resume: %w", err)
			}
			if ok {
				fmt.Fprintf(out, "resuming dataset %s above recovered height %d\n", *name, wm)
			} else {
				fmt.Fprintf(out, "resuming dataset %s from scratch (no recovered watermark)\n", *name)
			}
		}
		sink = hs
	}
	if *record != "" {
		rf, err := os.Create(*record)
		if err != nil {
			return err
		}
		defer rf.Close()
		bw := bufio.NewWriter(rf)
		defer bw.Flush()
		sink = observer.NewRecordSink(bw, *name, sink)
	}

	// Feed the chain through the relay on its own goroutine while the
	// observer run drains the watcher's events; closing the source ends the
	// run with a final flush.
	feedErr := make(chan error, 1)
	reconnects := 0
	go func() {
		defer src.Close()
		feedErr <- feed(ctx, c, relay, watcher, clk, *timeout, &reconnects)
	}()

	stats, runErr := observer.Run(ctx, src, sink, observer.Config{BatchBlocks: *batch})
	ferr := <-feedErr
	if runErr != nil {
		return fmt.Errorf("observer run: %w", runErr)
	}
	if ferr != nil {
		return fmt.Errorf("feed: %w", ferr)
	}

	fmt.Fprintf(out, "observed %s", stats)
	if reconnects > 0 {
		fmt.Fprintf(out, ", %d churn reconnects", reconnects)
	}
	fmt.Fprintln(out)
	if hs != nil {
		if hs.Last.Dataset == "" {
			// Every batch was skipped against the synced watermark: the sink
			// never shipped, so there is no ingest response to report.
			fmt.Fprintf(out, "dataset %s already covered by the service's watermark\n", *name)
		} else {
			height := int64(-1)
			if hs.Last.Height != nil {
				height = *hs.Last.Height
			}
			fmt.Fprintf(out, "dataset %s at height %d (index %d)\n", hs.Last.Dataset, height, hs.Last.IndexLen)
		}
	}
	if ix != nil {
		fmt.Fprintf(out, "in-process index: %d retained of %d ingested\n", ix.Len(), ix.Ingested())
		if err := core.WritePPESection(out, core.NewIndexedAuditor(ix).Last(*window).AuditPPE(core.AuditOptions{})); err != nil {
			return err
		}
	}
	return nil
}

// feed replays the chain into the relay node on the chain's own timeline:
// body transactions gossip first, then the block, then the feeder waits for
// the watcher to hold the new tip before moving on. A block lost to
// injected faults falls back to direct submission at the watcher after the
// propagation deadline — a real deployment's "observer fetched the block
// from a second source" path. Churn (when injected) restarts the watcher
// and reconnects it.
func feed(ctx context.Context, c *chain.Chain, relay, watcher *p2p.Node, clk *feedClock, timeout time.Duration, reconnects *int) error {
	submitted := 0
	for _, b := range c.Blocks() {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, tx := range b.Body() {
			clk.set(tx.Time)
			if err := relay.SubmitTx(tx, tx.Time); err != nil {
				// Duplicates after churn-driven resubmission are expected; a
				// rejected fresh transaction is not worth killing the feed for
				// either — the block itself will still carry it.
				continue
			}
			submitted++
		}
		// Let gossip settle so the watcher's seen-log delta for this block
		// carries the transactions that preceded it; under drop faults some
		// never arrive, so this is a bounded wait, not a barrier.
		waitUntil(ctx, timeout/4, func() bool {
			return len(watcher.SeenLog()) >= submitted
		})
		clk.set(b.Time)
		if err := relay.SubmitBlock(b); err != nil {
			return fmt.Errorf("relay rejected block %d: %w", b.Height, err)
		}
		arrived := waitUntil(ctx, timeout, func() bool {
			return watcher.Mempool(clk.now()).TipHeight >= b.Height
		})
		if !arrived {
			// The gossip path lost the block; hand it to the watcher directly.
			if err := watcher.SubmitBlock(b); err != nil && !strings.Contains(err.Error(), "already known") {
				return fmt.Errorf("watcher rejected block %d: %w", b.Height, err)
			}
			if !waitUntil(ctx, timeout, func() bool {
				return watcher.Mempool(clk.now()).TipHeight >= b.Height
			}) {
				return fmt.Errorf("watcher never reached height %d", b.Height)
			}
		}
		if watcher.MaybeChurn() {
			p2p.ConnectPair(relay, watcher)
			*reconnects++
		}
	}
	return nil
}

// splitSourceFlag parses one repeatable per-source flag value ("id=value").
func splitSourceFlag(v string) (id, val string, err error) {
	id, val, ok := strings.Cut(v, "=")
	if !ok || id == "" || val == "" {
		return "", "", fmt.Errorf("want id=value, got %q", v)
	}
	return id, val, nil
}

// sourceIDs collects a per-source override map's keys for ID validation.
func sourceIDs[V any](m map[string]V) map[string]bool {
	ids := make(map[string]bool, len(m))
	for id := range m {
		ids[id] = true
	}
	return ids
}

// validSourceID reports whether id names one of the n sources (s1..sN).
func validSourceID(id string, n int) bool {
	if len(id) < 2 || id[0] != 's' {
		return false
	}
	i, err := strconv.Atoi(id[1:])
	return err == nil && i >= 1 && i <= n
}

// multiConfig carries the shared knobs plus the per-source overrides into
// runMulti.
type multiConfig struct {
	sources   int
	url       string
	dataset   string
	batch     int
	chaos     string
	queue     int
	timeout   time.Duration
	retries   int
	backoff   time.Duration
	seed      uint64
	resume    bool
	inprocess bool
	retain    int
	window    int
	lag       map[string]time.Duration
	chaosBy   map[string]string
	seedBy    map[string]uint64
	minFeeBy  map[string]chain.SatPerVByte
}

// sharedCover is the covered-height watermark all in-process source sinks
// ratchet under one lock: every source replays the same chain, so block
// frames arrive up to N times, and only the first delivery of each height
// may append. This is the in-process mirror of the HTTP path's idempotent
// covered-rejection trim — safe because each source delivers blocks in
// increasing order, so a source's next un-trimmed block is never more than
// one above the shared watermark.
type sharedCover struct {
	mu      sync.Mutex
	covered int64
}

// sharedIndexSink serializes one source's batches into the shared index:
// under the shared lock it trims blocks a sibling already appended, applies
// the remainder (snapshots always — each source's first-seen observations
// land in the per-source ledger under its own attribution), and advances
// the watermark.
type sharedIndexSink struct {
	cover *sharedCover
	sink  *observer.IndexSink
}

func (s *sharedIndexSink) Apply(ctx context.Context, b *observer.Batch) error {
	s.cover.mu.Lock()
	defer s.cover.mu.Unlock()
	trimmed := *b
	trimmed.Blocks = nil
	top := s.cover.covered
	for _, blk := range b.Blocks {
		if blk.Height > s.cover.covered {
			trimmed.Blocks = append(trimmed.Blocks, blk)
			if blk.Height > top {
				top = blk.Height
			}
		}
	}
	if err := s.sink.Apply(ctx, &trimmed); err != nil {
		return err
	}
	s.cover.covered = top
	return nil
}

// sourceResult is one pipeline's outcome, reported in ID order.
type sourceResult struct {
	id         string
	stats      *observer.Stats
	reconnects int
	hs         *observer.HTTPSink
	err        error
}

// runMulti drives cfg.sources concurrent observation pipelines over the
// same chain, each a full relay/watcher pair with its own clock, fault
// plan, and sink, all feeding one streaming set under distinct source IDs.
func runMulti(ctx context.Context, out io.Writer, c *chain.Chain, cfg multiConfig) error {
	var (
		ix    *index.BlockIndex
		cover *sharedCover
	)
	if cfg.inprocess {
		opts := []index.Option{index.WithAppender(dataset.AppendLoose)}
		if cfg.retain > 0 {
			opts = append(opts, index.WithRetention(cfg.retain))
		}
		ix = index.NewIncremental(poolid.DefaultRegistry(), opts...)
		cover = &sharedCover{covered: -1}
	}

	results := make([]sourceResult, cfg.sources)
	var wg sync.WaitGroup
	for i := 0; i < cfg.sources; i++ {
		id := fmt.Sprintf("s%d", i+1)
		results[i] = sourceResult{id: id}

		spec := cfg.chaos
		if s, ok := cfg.chaosBy[id]; ok {
			spec = s
		}
		var plan *faults.Plan
		if spec != "" {
			p, err := faults.ParseSpec(spec)
			if err != nil {
				return fmt.Errorf("source %s: %w", id, err)
			}
			plan = p
		}

		clk := &feedClock{t: c.Blocks()[0].Time}
		relay := p2p.NewNode(id+"-relay", 0)
		watcher := p2p.NewNode(id+"-watcher", cfg.minFeeBy[id])
		defer relay.Close()
		defer watcher.Close()
		relay.SetClock(clk.now)
		watcher.SetClock(clk.now)
		relay.SetFaults(plan.P2P(1))
		watcher.SetFaults(plan.P2P(2))
		ns := observer.NewNodeSource(watcher, cfg.queue)
		defer ns.Close()
		p2p.ConnectPair(relay, watcher)

		var src observer.Source = ns
		if lag := cfg.lag[id]; lag != 0 {
			src = &observer.LagSource{Src: ns, Lag: lag}
		}

		var sink observer.Sink
		if cfg.inprocess {
			sink = &sharedIndexSink{cover: cover, sink: &observer.IndexSink{Index: ix, Source: id}}
		} else {
			seed := cfg.seedBy[id]
			if seed == 0 {
				seed = cfg.seed
			}
			hs := &observer.HTTPSink{
				URL:        cfg.url,
				Dataset:    cfg.dataset,
				Source:     id,
				Client:     &http.Client{Timeout: time.Minute},
				MaxRetries: cfg.retries,
				Backoff:    cfg.backoff,
				Seed:       seed,
				Faults:     plan.P2P(3),
			}
			if cfg.resume {
				wm, ok, err := hs.SyncWatermark(ctx)
				if err != nil {
					return fmt.Errorf("source %s resume: %w", id, err)
				}
				if ok {
					fmt.Fprintf(out, "source %s resuming dataset %s above recovered height %d\n", id, cfg.dataset, wm)
				} else {
					fmt.Fprintf(out, "source %s resuming dataset %s from scratch (no recovered watermark)\n", id, cfg.dataset)
				}
			}
			results[i].hs = hs
			sink = hs
		}

		wg.Add(1)
		go func(r *sourceResult, relay, watcher *p2p.Node, ns *observer.NodeSource, src observer.Source, sink observer.Sink, clk *feedClock) {
			defer wg.Done()
			feedErr := make(chan error, 1)
			go func() {
				defer ns.Close()
				feedErr <- feed(ctx, c, relay, watcher, clk, cfg.timeout, &r.reconnects)
			}()
			stats, runErr := observer.Run(ctx, src, sink, observer.Config{BatchBlocks: cfg.batch})
			ferr := <-feedErr
			r.stats = stats
			if runErr != nil {
				r.err = fmt.Errorf("observer run: %w", runErr)
			} else if ferr != nil {
				r.err = fmt.Errorf("feed: %w", ferr)
			}
		}(&results[i], relay, watcher, ns, src, sink, clk)
	}
	wg.Wait()

	for i := range results {
		r := &results[i]
		if r.err != nil {
			return fmt.Errorf("source %s: %w", r.id, r.err)
		}
		fmt.Fprintf(out, "source %s: observed %s", r.id, r.stats)
		if r.reconnects > 0 {
			fmt.Fprintf(out, ", %d churn reconnects", r.reconnects)
		}
		fmt.Fprintln(out)
		if r.hs != nil {
			if r.hs.Last.Dataset == "" {
				fmt.Fprintf(out, "source %s: dataset %s already covered by the service's watermark\n", r.id, cfg.dataset)
			} else {
				height := int64(-1)
				if r.hs.Last.Height != nil {
					height = *r.hs.Last.Height
				}
				fmt.Fprintf(out, "source %s: dataset %s at height %d (index %d)\n", r.id, r.hs.Last.Dataset, height, r.hs.Last.IndexLen)
			}
		}
	}
	if ix != nil {
		fmt.Fprintf(out, "in-process index: %d retained of %d ingested\n", ix.Len(), ix.Ingested())
		if err := core.WritePPESection(out, core.NewIndexedAuditor(ix).Last(cfg.window).AuditPPE(core.AuditOptions{})); err != nil {
			return err
		}
		if err := core.WriteDivergenceSection(out, core.DivergenceAudit(ix.SourceSeenTimes(), core.DivergenceOptions{})); err != nil {
			return err
		}
	}
	return nil
}

// waitUntil polls cond until it holds, the deadline passes, or ctx is done.
func waitUntil(ctx context.Context, d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		select {
		case <-ctx.Done():
			return false
		case <-time.After(2 * time.Millisecond):
		}
	}
	return cond()
}
