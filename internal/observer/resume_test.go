package observer_test

// Resume and redelivery tests for the HTTP sink: a rejected delivery whose
// blocks the service already holds must still land its snapshot frames
// (trim-and-resend, DESIGN.md §13), and after a chainauditd restart the sink
// syncs the recovered watermark and skips covered batches without
// re-applying their snapshots.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/faults"
	"chainaudit/internal/obs"
	"chainaudit/internal/observer"
	"chainaudit/internal/p2p"
	"chainaudit/internal/serve"
)

// mkObsBatch wraps a run of chain blocks as one observer batch, with a
// snapshot per block carrying the body transactions' own times — the shape
// ChainSource yields.
func mkObsBatch(blocks []*chain.Block) *observer.Batch {
	b := &observer.Batch{Blocks: blocks}
	for _, blk := range blocks {
		sn := &observer.Snapshot{Time: blk.Time, TipHeight: blk.Height}
		for _, tx := range blk.Body() {
			sn.Seen = append(sn.Seen, p2p.SeenEvent{TxID: tx.ID, At: tx.Time})
		}
		b.Snapshots = append(b.Snapshots, sn)
	}
	return b
}

type resumeHealth struct {
	Datasets []struct {
		Name        string `json:"name"`
		Fingerprint string `json:"fingerprint"`
		IndexLen    int    `json:"index_len"`
		Snapshots   int64  `json:"snapshots"`
		Watermark   *struct {
			Height int64 `json:"height"`
		} `json:"watermark"`
	} `json:"datasets"`
}

func healthDataset(t *testing.T, url, dataset string) (resumeHealth, int) {
	t.Helper()
	resp, err := http.Get(url + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz resumeHealth
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	for i, d := range hz.Datasets {
		if d.Name == dataset {
			return hz, i
		}
	}
	t.Fatalf("dataset %q missing from healthz", dataset)
	return hz, -1
}

// TestHTTPSinkRedeliveryKeepsSnapshots is the regression test for the
// snapshot-loss bug: when the service rejects a delivery because it already
// holds the blocks (covering 409), it skips the request's mempool frames —
// the sink must trim the covered blocks and re-send so the snapshots still
// land, for full and partial coverage alike.
func TestHTTPSinkRedeliveryKeepsSnapshots(t *testing.T) {
	h, c := serveFixture(t)
	ts := httptest.NewServer(h)
	defer ts.Close()
	blocks := c.Blocks()
	if len(blocks) < 4 {
		t.Skipf("fixture too small: %d blocks", len(blocks))
	}

	for _, tc := range []struct {
		name    string
		preload int // blocks the service holds before the delivery
		dataset string
	}{
		{"full-coverage", 4, "dup-full"},
		{"partial-coverage", 2, "dup-part"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Preload blocks only — the service's watermark covers them but it
			// never saw the batch's snapshots (an ack lost in transit).
			pre := observer.Batch{Blocks: blocks[:tc.preload]}
			preSink := &observer.HTTPSink{URL: ts.URL, Dataset: tc.dataset, Backoff: time.Millisecond}
			if err := preSink.Apply(context.Background(), &pre); err != nil {
				t.Fatal(err)
			}
			_, i := healthDataset(t, ts.URL, tc.dataset)
			_ = i

			// A fresh sink (no covered state) redelivers the full batch with
			// its snapshots. The covering rejection must not swallow them.
			sink := &observer.HTTPSink{URL: ts.URL, Dataset: tc.dataset, Backoff: time.Millisecond}
			batch := mkObsBatch(blocks[:4])
			if err := sink.Apply(context.Background(), batch); err != nil {
				t.Fatalf("redelivery failed: %v", err)
			}
			hz, i := healthDataset(t, ts.URL, tc.dataset)
			d := hz.Datasets[i]
			if d.IndexLen != 4 {
				t.Errorf("index_len = %d, want 4", d.IndexLen)
			}
			if d.Snapshots != int64(len(batch.Snapshots)) {
				t.Errorf("snapshots = %d, want %d (redelivery lost frames)", d.Snapshots, len(batch.Snapshots))
			}
			if d.Watermark == nil || d.Watermark.Height != blocks[3].Height {
				t.Errorf("watermark = %+v, want height %d", d.Watermark, blocks[3].Height)
			}
		})
	}
}

// TestHTTPSinksLaggingSourceKeepsSnapshots feeds one set from two
// attributed HTTP sinks: s1 ships the chain in 8-block batches and s2 in
// 4-block batches, s1 first each round, so s2 trails behind blocks s1
// already delivered. The horizon s2 learns from s1's blocks may trim its
// block frames but must never skip its batches: every snapshot frame of
// both sources lands.
func TestHTTPSinksLaggingSourceKeepsSnapshots(t *testing.T) {
	h, c := serveFixture(t)
	ts := httptest.NewServer(h)
	defer ts.Close()
	blocks := c.Blocks()
	chunk := func(n int) []*observer.Batch {
		var out []*observer.Batch
		for i := 0; i < len(blocks); i += n {
			out = append(out, mkObsBatch(blocks[i:min(i+n, len(blocks))]))
		}
		return out
	}
	feeds := []struct {
		sink    *observer.HTTPSink
		batches []*observer.Batch
	}{
		{&observer.HTTPSink{URL: ts.URL, Dataset: "multi", Source: "s1", Backoff: time.Millisecond}, chunk(8)},
		{&observer.HTTPSink{URL: ts.URL, Dataset: "multi", Source: "s2", Backoff: time.Millisecond}, chunk(4)},
	}
	want := 0
	for round := 0; round < len(feeds[1].batches); round++ {
		for _, f := range feeds {
			if round < len(f.batches) {
				if err := f.sink.Apply(context.Background(), f.batches[round]); err != nil {
					t.Fatalf("%s round %d: %v", f.sink.Source, round, err)
				}
				want += len(f.batches[round].Snapshots)
			}
		}
	}
	hz, i := healthDataset(t, ts.URL, "multi")
	d := hz.Datasets[i]
	if d.IndexLen != len(blocks) {
		t.Errorf("index_len = %d, want %d", d.IndexLen, len(blocks))
	}
	if d.Snapshots != int64(want) || want != 2*len(blocks) {
		t.Errorf("snapshots = %d, want %d (a lagging source lost frames)", d.Snapshots, 2*len(blocks))
	}
}

// TestHTTPSinkResumeAfterServerRestart exercises the durable-streaming
// resume loop: ship half a feed to a WAL-backed server, kill it (no
// shutdown), restart over the same stream directory, sync the recovered
// watermark, and replay the whole feed — covered batches skip, the rest
// land, and the final state is byte-identical to an uninterrupted run with
// zero duplicated or lost snapshot frames.
func TestHTTPSinkResumeAfterServerRestart(t *testing.T) {
	dir := t.TempDir()
	boot := func() *serve.Server {
		srv, err := serve.New(serve.Config{StreamDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	_, c := serveFixture(t)
	blocks := c.Blocks()
	var batches []*observer.Batch
	for i := 0; i < len(blocks); i += 4 {
		end := i + 4
		if end > len(blocks) {
			end = len(blocks)
		}
		batches = append(batches, mkObsBatch(blocks[i:end]))
	}
	if len(batches) < 3 {
		t.Skipf("fixture too small: %d batches", len(batches))
	}
	cut := len(batches) / 2

	srv1 := boot()
	ts1 := httptest.NewServer(srv1.Handler())
	sink1 := &observer.HTTPSink{URL: ts1.URL, Dataset: "live", Backoff: time.Millisecond}
	for _, b := range batches[:cut] {
		if err := sink1.Apply(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	ts1.Close() // kill -9: no srv1.Close()

	srv2 := boot()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	sink2 := &observer.HTTPSink{URL: ts2.URL, Dataset: "live", Backoff: time.Millisecond}
	wm, ok, err := sink2.SyncWatermark(context.Background())
	if err != nil || !ok {
		t.Fatalf("SyncWatermark = %d, %v, %v; want recovered height", wm, ok, err)
	}
	lastShipped := batches[cut-1].Blocks[len(batches[cut-1].Blocks)-1].Height
	if wm != lastShipped {
		t.Fatalf("recovered watermark %d, want %d", wm, lastShipped)
	}

	// The observer replays its source from the start; the sink skips the
	// batches the recovered server already holds, without posting them.
	skipped := func() int64 { return obs.Default.Snapshot().Counters["observer.skipped_covered"] }
	before := skipped()
	for i, b := range batches {
		if err := sink2.Apply(context.Background(), b); err != nil {
			t.Fatalf("resume batch %d: %v", i, err)
		}
	}
	if n := skipped() - before; n != int64(cut) {
		t.Errorf("resume skipped %d batches, want the %d delivered before the restart", n, cut)
	}

	// Reference: the same feed into a fresh durable server, never killed.
	refDir := t.TempDir()
	srvRef, err := serve.New(serve.Config{StreamDir: refDir})
	if err != nil {
		t.Fatal(err)
	}
	tsRef := httptest.NewServer(srvRef.Handler())
	defer tsRef.Close()
	sinkRef := &observer.HTTPSink{URL: tsRef.URL, Dataset: "live", Backoff: time.Millisecond}
	for _, b := range batches {
		if err := sinkRef.Apply(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}

	hzGot, i := healthDataset(t, ts2.URL, "live")
	hzWant, j := healthDataset(t, tsRef.URL, "live")
	got, want := hzGot.Datasets[i], hzWant.Datasets[j]
	if got.Fingerprint != want.Fingerprint {
		t.Errorf("resumed fingerprint %q != uninterrupted %q", got.Fingerprint, want.Fingerprint)
	}
	if got.Snapshots != want.Snapshots {
		t.Errorf("resumed snapshots = %d, want %d (lost or duplicated frames)", got.Snapshots, want.Snapshots)
	}
	if got.IndexLen != want.IndexLen || got.IndexLen != len(blocks) {
		t.Errorf("resumed index_len = %d, want %d", got.IndexLen, len(blocks))
	}
	for _, target := range []string{
		"/v1/audits/ppe?dataset=live&format=text",
		"/v1/audits/ppe?dataset=live&format=text&window=16",
		"/v1/audits/lowfee?dataset=live&format=text&window=16",
	} {
		w := textBody(t, srvRef.Handler(), target)
		g := textBody(t, srv2.Handler(), target)
		if g != w {
			t.Errorf("%s: resumed audit diverged from uninterrupted run", target)
		}
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srvRef.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPSinkDuplicateFaultKeepsSnapshots runs the injected
// duplicate-delivery fault against a snapshot-carrying batch: the second
// delivery comes back as a covering rejection and must count as idempotent
// success without doubling the applied snapshot frames.
func TestHTTPSinkDuplicateFaultKeepsSnapshots(t *testing.T) {
	h, c := serveFixture(t)
	ts := httptest.NewServer(h)
	defer ts.Close()
	blocks := c.Blocks()

	plan, err := faults.ParseSpec("seed=3,p2p.dup=1")
	if err != nil {
		t.Fatal(err)
	}
	sink := &observer.HTTPSink{URL: ts.URL, Dataset: "dup-fault", Backoff: time.Millisecond, Faults: plan.P2P(1)}
	batch := mkObsBatch(blocks[:4])
	if err := sink.Apply(context.Background(), batch); err != nil {
		t.Fatalf("duplicate-fault delivery failed: %v", err)
	}
	hz, i := healthDataset(t, ts.URL, "dup-fault")
	d := hz.Datasets[i]
	if d.IndexLen != 4 {
		t.Errorf("index_len = %d, want 4", d.IndexLen)
	}
	if d.Snapshots != int64(len(batch.Snapshots)) {
		t.Errorf("snapshots = %d, want %d (duplicate delivery double-applied)", d.Snapshots, len(batch.Snapshots))
	}
}
