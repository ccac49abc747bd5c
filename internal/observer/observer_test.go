package observer_test

// Observer tests pin the live-feed contract from three sides: a
// deterministic ChainSource driven into an in-process IndexSink must land
// on the batch auditor's bytes; the HTTP sink must ship, retry, and stay
// idempotent under duplicate delivery; and a real p2p node's block hook
// must surface gossip as ordered events with the seen-log delta attached.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/core"
	"chainaudit/internal/dataset"
	"chainaudit/internal/faults"
	"chainaudit/internal/index"
	"chainaudit/internal/observer"
	"chainaudit/internal/p2p"
	"chainaudit/internal/serve"
	"chainaudit/internal/stream"
)

var baseTime = time.Unix(1_600_000_000, 0)

func buildA(t testing.TB) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Cached(dataset.BuilderA, dataset.Options{Seed: 11, Duration: 4 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func mkTx(fee chain.Amount, vsize int64, nonce uint16) *chain.Tx {
	tx := &chain.Tx{
		VSize: vsize,
		Fee:   fee,
		Time:  baseTime,
		Inputs: []chain.TxIn{{
			PrevOut: chain.OutPoint{TxID: chain.TxID{byte(nonce), byte(nonce >> 8), 0xDD}},
			Address: "sender",
			Value:   chain.BTC + fee,
		}},
		Outputs: []chain.TxOut{{Address: "receiver", Value: chain.BTC}},
	}
	tx.ComputeID()
	return tx
}

func mkBlock(height int64, txs ...*chain.Tx) *chain.Block {
	var fees chain.Amount
	for _, tx := range txs {
		fees += tx.Fee
	}
	cb := &chain.Tx{
		VSize:       120,
		Time:        baseTime,
		Outputs:     []chain.TxOut{{Address: "pool", Value: chain.Subsidy(height) + fees}},
		CoinbaseTag: "/Pool/",
	}
	cb.ComputeID()
	b := &chain.Block{Height: height, Time: baseTime, Txs: append([]*chain.Tx{cb}, txs...)}
	b.ComputeHash([32]byte{})
	return b
}

// memSink collects applied batches by value, so later reuse of the run's
// staging batch cannot alias them.
type memSink struct{ batches []observer.Batch }

func (s *memSink) Apply(_ context.Context, b *observer.Batch) error {
	s.batches = append(s.batches, observer.Batch{Blocks: b.Blocks, Snapshots: b.Snapshots})
	return nil
}

// TestChainSourceIndexSinkMatchesBatch replays a built chain through the
// observer pipeline into an in-process index and checks the windowed audits
// land byte-identical to the batch auditor over the same suffix — the
// observer adds transport, never verdict drift.
func TestChainSourceIndexSinkMatchesBatch(t *testing.T) {
	ds := buildA(t)
	c, reg := ds.Result.Chain, ds.Registry
	ix := index.NewIncremental(reg)

	stats, err := observer.Run(context.Background(),
		observer.NewChainSource(c), &observer.IndexSink{Set: stream.New("a", ix, time.Now)},
		observer.Config{BatchBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Blocks != c.Len() || stats.Snapshots != c.Len() {
		t.Fatalf("stats %d blocks %d snapshots, want %d of each", stats.Blocks, stats.Snapshots, c.Len())
	}
	wantBatches := (c.Len() + 7) / 8
	if stats.Batches != wantBatches || len(stats.Ship) != wantBatches {
		t.Fatalf("batches %d (ship %d), want %d", stats.Batches, len(stats.Ship), wantBatches)
	}

	render := func(f func(io.Writer) error) string {
		var b bytes.Buffer
		if err := f(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, n := range []int{1, 7, 16} {
		batch := &core.Auditor{Chain: c.Suffix(n), Registry: reg}
		want := render(func(w io.Writer) error { return core.WritePPESection(w, batch.AuditPPE(core.AuditOptions{})) })
		got := render(func(w io.Writer) error {
			return core.WritePPESection(w, core.NewIndexedAuditor(ix).Last(n).AuditPPE(core.AuditOptions{}))
		})
		if got != want {
			t.Errorf("window %d: PPE diverged from batch suffix", n)
		}
	}

	// The per-block snapshots carried the body transactions' own times.
	last := c.Blocks()[c.Len()-1]
	for _, tx := range last.Body() {
		got, ok := ix.FirstSeen(tx.ID)
		if !ok || !got.Equal(tx.Time) {
			t.Fatalf("first-seen for tx %s = %v ok=%v, want %v", tx.ID.Short(), got, ok, tx.Time)
		}
	}
}

// TestRunDropsOutOfOrder pins the feed-side ordering guard: stale or
// duplicate heights are dropped (their snapshots kept) instead of reaching
// a sink that would reject the whole batch for them.
func TestRunDropsOutOfOrder(t *testing.T) {
	b1, b2, b3 := mkBlock(650_000), mkBlock(650_001), mkBlock(650_002)
	events := []observer.Event{
		{Block: b1, Snapshot: &observer.Snapshot{Time: baseTime, TipHeight: b1.Height}},
		{Block: b2},
		{Block: b2, Snapshot: &observer.Snapshot{Time: baseTime.Add(time.Second), TipHeight: b2.Height}}, // gossip redelivery
		{Block: b1}, // stale
		{Block: b3},
	}
	src := &scriptSource{events: events}
	sink := &memSink{}
	stats, err := observer.Run(context.Background(), src, sink, observer.Config{BatchBlocks: 100})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Blocks != 3 {
		t.Fatalf("blocks %d, want 3 (duplicates dropped)", stats.Blocks)
	}
	if stats.Snapshots != 2 {
		t.Fatalf("snapshots %d, want 2 (kept despite dropped blocks)", stats.Snapshots)
	}
	if len(sink.batches) != 1 {
		t.Fatalf("batches %d, want 1", len(sink.batches))
	}
	got := sink.batches[0]
	if len(got.Blocks) != 3 || got.Blocks[0] != b1 || got.Blocks[1] != b2 || got.Blocks[2] != b3 {
		t.Fatalf("sink saw %d blocks in wrong order", len(got.Blocks))
	}
}

type scriptSource struct {
	events []observer.Event
	i      int
}

func (s *scriptSource) Next(ctx context.Context) (observer.Event, error) {
	if err := ctx.Err(); err != nil {
		return observer.Event{}, err
	}
	if s.i >= len(s.events) {
		return observer.Event{}, io.EOF
	}
	ev := s.events[s.i]
	s.i++
	return ev, nil
}

// serveFixture boots a chainauditd handler backed by a CSV-loaded batch set
// "main" holding the returned chain — the reference the shipped stream is
// compared against.
func serveFixture(t *testing.T) (http.Handler, *chain.Chain) {
	t.Helper()
	ds, err := dataset.Cached(dataset.BuilderC, dataset.Options{Seed: 11, Duration: 4 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "chain.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteChainCSV(f, ds.Result.Chain); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	c, err := dataset.ReadChainCSV(raw)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	srv, err := serve.New(serve.Config{
		Chains: []serve.ChainSpec{{Name: "main", Path: path}},
		Clock:  func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv.Handler(), c
}

func textBody(t *testing.T, h http.Handler, target string) string {
	t.Helper()
	req := httptest.NewRequest("POST", target, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("%s = %d: %s", target, rr.Code, rr.Body.String())
	}
	return rr.Body.String()
}

// TestHTTPSinkRecordAndReplayIdentical is the in-process half of the
// smoke-live gate: ship a chain through RecordSink→HTTPSink into one
// service, replay the recording into a second data set on the same service,
// and require identical audit bytes from both — plus identity with the
// batch-loaded reference.
func TestHTTPSinkRecordAndReplayIdentical(t *testing.T) {
	h, c := serveFixture(t)
	ts := httptest.NewServer(h)
	defer ts.Close()

	var recording bytes.Buffer
	http1 := &observer.HTTPSink{URL: ts.URL, Dataset: "live"}
	sink := observer.NewRecordSink(&recording, "live", http1)
	stats, err := observer.Run(context.Background(),
		observer.NewChainSource(c), sink, observer.Config{BatchBlocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Blocks != c.Len() {
		t.Fatalf("shipped %d blocks, want %d", stats.Blocks, c.Len())
	}
	if http1.Last.Height == nil || *http1.Last.Height != c.Blocks()[c.Len()-1].Height {
		t.Fatalf("watermark %v, want tip %d", http1.Last.Height, c.Blocks()[c.Len()-1].Height)
	}

	// Replay the recording verbatim into a second streaming set.
	sc := bufio.NewScanner(bytes.NewReader(recording.Bytes()))
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		var req serve.IngestRequest
		if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
			t.Fatalf("recorded line does not parse: %v", err)
		}
		req.Dataset = "replayed"
		raw, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replay rejected (%d): %s", resp.StatusCode, body)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for _, target := range []string{
		"/v1/audits/ppe?format=text&dataset=%s",
		"/v1/audits/ppe?format=text&window=16&dataset=%s",
		"/v1/audits/lowfee?format=text&window=16&dataset=%s",
	} {
		live := textBody(t, h, fmt.Sprintf(target, "live"))
		replayed := textBody(t, h, fmt.Sprintf(target, "replayed"))
		main := textBody(t, h, fmt.Sprintf(target, "main"))
		if live != replayed {
			t.Errorf("%s: live and replayed audit bytes differ", target)
		}
		if live != main {
			t.Errorf("%s: live and batch-loaded audit bytes differ", target)
		}
	}
}

// TestHTTPSinkIdempotentAndFatal pins the retry semantics: redelivering an
// applied batch succeeds through the watermark check, while a gapped batch
// is rejected without burning retries.
func TestHTTPSinkIdempotentAndFatal(t *testing.T) {
	h, c := serveFixture(t)
	ts := httptest.NewServer(h)
	defer ts.Close()
	blocks := c.Blocks()
	sink := &observer.HTTPSink{URL: ts.URL, Dataset: "live", Backoff: time.Millisecond}

	batch := &observer.Batch{Blocks: blocks[:4]}
	if err := sink.Apply(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	// Redelivery: every block already applied, so the 409 carries a covering
	// watermark and the sink treats it as success.
	if err := sink.Apply(context.Background(), batch); err != nil {
		t.Fatalf("duplicate delivery not idempotent: %v", err)
	}
	// A gap is a semantic rejection the watermark cannot cover: fatal, fast.
	gapped := &observer.Batch{Blocks: blocks[8:10]}
	if err := sink.Apply(context.Background(), gapped); err == nil {
		t.Fatal("gapped batch accepted")
	}
}

// TestHTTPSinkRetriesServerErrors pins transport resilience: 5xx responses
// and injected drops burn retries with backoff, then the batch lands.
func TestHTTPSinkRetriesServerErrors(t *testing.T) {
	h, c := serveFixture(t)
	var failures atomic.Int64
	failures.Store(2)
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failures.Add(-1) >= 0 {
			http.Error(w, "transient", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(flaky)
	defer ts.Close()

	sink := &observer.HTTPSink{URL: ts.URL, Dataset: "live", Backoff: time.Millisecond}
	if err := sink.Apply(context.Background(), &observer.Batch{Blocks: c.Blocks()[:2]}); err != nil {
		t.Fatalf("did not survive transient 503s: %v", err)
	}
	if sink.Last.Appended != 2 {
		t.Fatalf("appended %d, want 2", sink.Last.Appended)
	}

	// A plan that drops every message starves the sink: the retry budget is
	// spent and Apply reports the injected failure.
	plan, err := faults.NewPlan(7, faults.Rates{P2PDrop: 1})
	if err != nil {
		t.Fatal(err)
	}
	dropped := &observer.HTTPSink{URL: ts.URL, Dataset: "live", Backoff: time.Millisecond, MaxRetries: 2, Faults: plan.P2P(1)}
	if err := dropped.Apply(context.Background(), &observer.Batch{Blocks: c.Blocks()[2:3]}); err == nil {
		t.Fatal("fully dropped link reported success")
	}
}

// TestNodeSourceLiveFeed runs the real thing end to end: a miner node
// gossips transactions and blocks to a watcher node over pipes, the
// watcher's block hook feeds a NodeSource, and the observer run surfaces
// the blocks in order with the first-contact delta attached.
func TestNodeSourceLiveFeed(t *testing.T) {
	miner := p2p.NewNode("miner", 1)
	watcher := p2p.NewNode("watcher", 1)
	defer miner.Close()
	defer watcher.Close()
	miner.SetClock(func() time.Time { return baseTime })
	watcher.SetClock(func() time.Time { return baseTime })
	src := observer.NewNodeSource(watcher, 64)
	p2p.ConnectPair(miner, watcher)

	tx1, tx2 := mkTx(5_000, 250, 1), mkTx(7_000, 300, 2)
	if err := miner.SubmitTx(tx1, baseTime); err != nil {
		t.Fatal(err)
	}
	if err := miner.SubmitTx(tx2, baseTime); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "txs at watcher", func() bool { return watcher.Mempool(baseTime).Count == 2 })

	if err := miner.SubmitBlock(mkBlock(650_000, tx1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "block 650000 at watcher", func() bool {
		return watcher.Mempool(baseTime).TipHeight == 650_000
	})
	if err := miner.SubmitBlock(mkBlock(650_001, tx2)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "block 650001 at watcher", func() bool {
		return watcher.Mempool(baseTime).TipHeight == 650_001
	})

	src.Close() // queued events stay readable; Run drains to EOF
	sink := &memSink{}
	stats, err := observer.Run(context.Background(), src, sink, observer.Config{BatchBlocks: 100})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Blocks != 2 {
		t.Fatalf("observed %d blocks, want 2", stats.Blocks)
	}
	if len(sink.batches) != 1 {
		t.Fatalf("batches %d, want 1", len(sink.batches))
	}
	b := sink.batches[0]
	if b.Blocks[0].Height != 650_000 || b.Blocks[1].Height != 650_001 {
		t.Fatalf("heights %d, %d out of order", b.Blocks[0].Height, b.Blocks[1].Height)
	}
	// The first block's snapshot carries the watcher's first contact with
	// both gossiped transactions; the second's delta is empty.
	seen := map[chain.TxID]bool{}
	for _, ev := range b.Snapshots[0].Seen {
		seen[ev.TxID] = true
	}
	if !seen[tx1.ID] || !seen[tx2.ID] {
		t.Fatalf("first snapshot missing gossiped txs (saw %d events)", len(b.Snapshots[0].Seen))
	}
	if len(b.Snapshots[1].Seen) != 0 {
		t.Fatalf("second snapshot delta has %d events, want 0", len(b.Snapshots[1].Seen))
	}
}

// TestNodeSourceOverrun pins the loud-failure contract: when the node
// outruns the queue, the source surfaces ErrOverrun after draining instead
// of silently losing blocks.
func TestNodeSourceOverrun(t *testing.T) {
	node := p2p.NewNode("n", 1)
	defer node.Close()
	node.SetClock(func() time.Time { return baseTime })
	src := observer.NewNodeSource(node, 1)
	defer src.Close()

	for h := int64(650_000); h < 650_003; h++ {
		err := node.SubmitBlock(mkBlock(h))
		if err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	if ev, err := src.Next(ctx); err != nil || ev.Block.Height != 650_000 {
		t.Fatalf("first event %v, %v", ev.Block, err)
	}
	if _, err := src.Next(ctx); !errors.Is(err, observer.ErrOverrun) {
		t.Fatalf("drained queue error = %v, want ErrOverrun", err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}
