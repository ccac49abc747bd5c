package serve

// Streaming-ingest tests: replaying a recorded block stream through
// POST /v1/ingest must yield audit responses byte-identical to the batch
// path over the same window — the in-process half of the smoke-stream gate
// — plus the watermark, cache-invalidation, and failure contracts.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/core"
	"chainaudit/internal/dataset"
)

// streamFixture builds a CSV-backed server with an injected clock and
// returns it with the round-tripped chain the CSV loads into (the batch
// reference the stream must reproduce).
func streamFixture(t *testing.T) (*Server, *chain.Chain, *time.Time) {
	t.Helper()
	return streamFixtureCfg(t, nil)
}

// streamFixtureCfg is streamFixture with a config hook (e.g. StreamRetain).
func streamFixtureCfg(t *testing.T, mutate func(*Config)) (*Server, *chain.Chain, *time.Time) {
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
	cfg := Config{
		Chains: []ChainSpec{{Name: "main", Path: path}},
		Clock:  func() time.Time { return now },
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.StreamDir != "" {
		// A checkpoint write still running when the test ends would race
		// the removal of the stream directory, which the test made before
		// the server, so this cleanup runs first.
		t.Cleanup(func() { settleWrites(t, s) })
	}
	return s, c, &now
}

func postJSON(t *testing.T, h http.Handler, target string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", target, bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func textBody(t *testing.T, h http.Handler, target string) string {
	t.Helper()
	rr := do(t, h, "POST", target)
	if rr.Code != http.StatusOK {
		t.Fatalf("%s = %d: %s", target, rr.Code, rr.Body.String())
	}
	return rr.Body.String()
}

func TestIngestReplayMatchesBatch(t *testing.T) {
	s, c, _ := streamFixture(t)
	h := s.Handler()
	blocks := c.Blocks()

	// Replay the recorded chain in small batches, with a mempool snapshot
	// per batch carrying the transactions' own times as first-seen.
	const batch = 16
	for i := 0; i < len(blocks); i += batch {
		end := i + batch
		if end > len(blocks) {
			end = len(blocks)
		}
		req := IngestRequest{Dataset: "live"}
		var snap SnapshotFrame
		for _, b := range blocks[i:end] {
			req.Blocks = append(req.Blocks, FrameBlock(b))
			snap.TimeNS = b.Time.UnixNano()
			snap.TipHeight = b.Height
			for _, tx := range b.Body() {
				snap.Txs = append(snap.Txs, SnapshotTx{ID: tx.ID.String(), FirstSeenNS: tx.Time.UnixNano()})
			}
		}
		req.Mempool = []SnapshotFrame{snap}
		rr := postJSON(t, h, "/v1/ingest", req)
		if rr.Code != http.StatusOK {
			t.Fatalf("ingest batch at %d = %d: %s", i, rr.Code, rr.Body.String())
		}
		resp := decode[IngestResponse](t, rr)
		if resp.Appended != end-i || resp.Snapshots != 1 || resp.Error != "" {
			t.Fatalf("ingest batch at %d = %+v", i, resp)
		}
	}

	// Pick the most-mined pool for the dark-fee comparison.
	set, err := s.lookupSet("main")
	if err != nil {
		t.Fatal(err)
	}
	pool := set.aud.Index().TopPoolsByShare(core.DefaultMinShare)[0]

	// Full-chain audits: streamed dataset byte-identical to the batch CSV set.
	kinds := []struct{ name, extra string }{
		{"ppe", ""},
		{"lowfee", ""},
		{"selfinterest", ""},
		{"darkfee", "&pool=" + pool},
	}
	for _, k := range kinds {
		want := textBody(t, h, "/v1/audits/"+k.name+"?dataset=main&format=text"+k.extra)
		got := textBody(t, h, "/v1/audits/"+k.name+"?dataset=live&format=text"+k.extra)
		if got != want {
			t.Errorf("streamed %s diverged from batch:\n--- batch ---\n%s--- stream ---\n%s", k.name, want, got)
		}
	}

	// Sliding-window audits: batch and streamed sets answer identically, and
	// both match the batch auditor over the chain suffix.
	const win = 20
	for _, k := range kinds {
		if k.name == "selfinterest" {
			continue // no sliding-window variant
		}
		target := "/v1/audits/" + k.name + "?dataset=%s&format=text" + k.extra + fmt.Sprintf("&window=%d", win)
		want := textBody(t, h, fmt.Sprintf(target, "main"))
		got := textBody(t, h, fmt.Sprintf(target, "live"))
		if got != want {
			t.Errorf("windowed %s diverged between batch and stream:\n--- batch ---\n%s--- stream ---\n%s", k.name, want, got)
		}
	}
	suffix := &core.Auditor{Chain: c.Suffix(win), Registry: set.aud.Registry}
	var ref bytes.Buffer
	if err := core.WritePPESection(&ref, suffix.AuditPPE(core.AuditOptions{})); err != nil {
		t.Fatal(err)
	}
	got := textBody(t, h, fmt.Sprintf("/v1/audits/ppe?dataset=live&format=text&window=%d", win))
	if got != ref.String() {
		t.Errorf("windowed PPE diverged from chain.Suffix reference:\n--- suffix ---\n%s--- stream ---\n%s", ref.String(), got)
	}
}

func TestIngestWatermarkAndCacheInvalidation(t *testing.T) {
	s, c, now := streamFixture(t)
	h := s.Handler()
	blocks := c.Blocks()
	if len(blocks) < 2 {
		t.Fatal("fixture too small")
	}

	t0 := *now
	first := IngestRequest{Dataset: "live", Blocks: []BlockFrame{FrameBlock(blocks[0])}}
	if rr := postJSON(t, h, "/v1/ingest", first); rr.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", rr.Code, rr.Body.String())
	}

	type health struct {
		Datasets []struct {
			Name        string `json:"name"`
			Fingerprint string `json:"fingerprint"`
			Blocks      int    `json:"blocks"`
			IndexLen    int    `json:"index_len"`
			Watermark   *struct {
				Height     int64     `json:"height"`
				LastAppend time.Time `json:"last_append"`
			} `json:"watermark"`
		} `json:"datasets"`
	}
	hz := decode[health](t, do(t, h, "GET", "/v1/healthz"))
	byName := map[string]int{}
	for i, d := range hz.Datasets {
		byName[d.Name] = i
	}
	mainDS := hz.Datasets[byName["main"]]
	if mainDS.Watermark != nil {
		t.Errorf("batch dataset grew a watermark: %+v", mainDS.Watermark)
	}
	if mainDS.IndexLen != mainDS.Blocks || mainDS.IndexLen == 0 {
		t.Errorf("batch index_len = %d, blocks = %d", mainDS.IndexLen, mainDS.Blocks)
	}
	live := hz.Datasets[byName["live"]]
	if live.IndexLen != 1 || live.Blocks != 1 {
		t.Errorf("live index_len = %d blocks = %d, want 1", live.IndexLen, live.Blocks)
	}
	if live.Watermark == nil {
		t.Fatal("live dataset has no watermark")
	}
	if live.Watermark.Height != blocks[0].Height || !live.Watermark.LastAppend.Equal(t0) {
		t.Errorf("watermark = %+v, want height %d at %v", live.Watermark, blocks[0].Height, t0)
	}

	// The watermark time comes from the injected clock.
	*now = t0.Add(42 * time.Second)
	fpBefore := live.Fingerprint
	if !decode[Envelope](t, do(t, h, "POST", "/v1/audits/ppe?dataset=live")).Cached {
		// prime the cache so post-append Cached=false below proves invalidation
		if !decode[Envelope](t, do(t, h, "POST", "/v1/audits/ppe?dataset=live")).Cached {
			t.Fatal("repeat audit not cached")
		}
	}

	second := IngestRequest{Dataset: "live", Blocks: []BlockFrame{FrameBlock(blocks[1])}}
	if rr := postJSON(t, h, "/v1/ingest", second); rr.Code != http.StatusOK {
		t.Fatalf("second ingest = %d", rr.Code)
	}
	hz = decode[health](t, do(t, h, "GET", "/v1/healthz"))
	live = hz.Datasets[byName["live"]]
	if live.Watermark.Height != blocks[1].Height || !live.Watermark.LastAppend.Equal(t0.Add(42*time.Second)) {
		t.Errorf("watermark after append = %+v", live.Watermark)
	}
	if live.Fingerprint == fpBefore {
		t.Error("fingerprint did not rotate on append")
	}
	// The appended block invalidates cached audit results (new fingerprint →
	// new cache key → fresh computation over the grown chain).
	env := decode[Envelope](t, do(t, h, "POST", "/v1/audits/ppe?dataset=live"))
	if env.Cached {
		t.Error("audit after append served from stale cache")
	}
	if env.Fingerprint != live.Fingerprint {
		t.Errorf("audit fingerprint %q != healthz fingerprint %q", env.Fingerprint, live.Fingerprint)
	}

	// Ingest metrics are flowing.
	m := decode[struct {
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}](t, do(t, h, "GET", "/v1/metrics"))
	if m.Metrics.Counters["serve.ingest.requests"] == 0 || m.Metrics.Counters["serve.ingest.blocks"] == 0 {
		t.Errorf("ingest counters missing: %v", m.Metrics.Counters)
	}
}

func TestIngestErrors(t *testing.T) {
	s, c, _ := streamFixture(t)
	h := s.Handler()
	blocks := c.Blocks()

	// Malformed body.
	req := httptest.NewRequest("POST", "/v1/ingest", bytes.NewReader([]byte("{nope")))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Errorf("malformed body = %d", rr.Code)
	}
	// Trailing data after the JSON value: the WAL logs the body, and replay
	// would reject what ingest had acknowledged. A trailing newline, as an
	// Encoder writes, is whitespace and stays legal.
	one, err := json.Marshal(IngestRequest{Dataset: "live"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tail string
		want int
	}{
		{`{"dataset":"live"}`, http.StatusBadRequest}, {"x", http.StatusBadRequest},
		{"]", http.StatusBadRequest}, {"\n{", http.StatusBadRequest},
		{"", http.StatusOK}, {"\n", http.StatusOK}, {" \r\n\t", http.StatusOK},
	} {
		req := httptest.NewRequest("POST", "/v1/ingest", bytes.NewReader(append(append([]byte{}, one...), c.tail...)))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != c.want {
			t.Errorf("body with trailing %q = %d, want %d: %s", c.tail, rr.Code, c.want, rr.Body.String())
		}
	}
	// An unknown member nested past encoding/json's depth bound of 10,000,
	// in a body well under the size limit: a 400, and no deep Go stack.
	deep := `{"dataset":"live","x":` + strings.Repeat("[", 20000) + strings.Repeat("]", 20000) + `}`
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/ingest", strings.NewReader(deep)))
	if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), "max depth") {
		t.Errorf("deeply nested unknown member = %d: %s", rr.Code, rr.Body.String())
	}
	// Missing dataset name.
	if rr := postJSON(t, h, "/v1/ingest", IngestRequest{}); rr.Code != http.StatusBadRequest {
		t.Errorf("missing dataset = %d", rr.Code)
	}
	// Ingest into a startup-loaded batch set.
	if rr := postJSON(t, h, "/v1/ingest", IngestRequest{Dataset: "main"}); rr.Code != http.StatusConflict {
		t.Errorf("ingest into batch set = %d", rr.Code)
	}
	// Unparseable txid.
	bad := IngestRequest{Dataset: "live", Blocks: []BlockFrame{{
		Height: blocks[0].Height, TimeNS: blocks[0].Time.UnixNano(),
		Txs: []TxFrame{{ID: "nothex", Tag: "/P/"}},
	}}}
	if rr := postJSON(t, h, "/v1/ingest", bad); rr.Code != http.StatusBadRequest {
		t.Errorf("bad txid = %d", rr.Code)
	}
	// A gap mid-batch: the first block appends, the third (skipping the
	// second) is rejected with 409 and the applied prefix is reported.
	gap := IngestRequest{Dataset: "live", Blocks: []BlockFrame{
		FrameBlock(blocks[0]), FrameBlock(blocks[2]),
	}}
	rr2 := postJSON(t, h, "/v1/ingest", gap)
	if rr2.Code != http.StatusConflict {
		t.Fatalf("gap batch = %d: %s", rr2.Code, rr2.Body.String())
	}
	resp := decode[IngestResponse](t, rr2)
	if resp.Appended != 1 || resp.Error == "" || resp.IndexLen != 1 {
		t.Errorf("gap batch response = %+v", resp)
	}
	// The prefix stays usable: the skipped block appends cleanly afterwards.
	fix := IngestRequest{Dataset: "live", Blocks: []BlockFrame{FrameBlock(blocks[1]), FrameBlock(blocks[2])}}
	if rr := postJSON(t, h, "/v1/ingest", fix); rr.Code != http.StatusOK {
		t.Errorf("gap fill = %d: %s", rr.Code, rr.Body.String())
	}
	// Window on an audit without a sliding variant.
	if rr := do(t, h, "POST", "/v1/audits/selfinterest?dataset=live&window=5"); rr.Code != http.StatusBadRequest {
		t.Errorf("windowed selfinterest = %d", rr.Code)
	}
	if rr := do(t, h, "POST", "/v1/audits/ppe?dataset=live&window=-3"); rr.Code != http.StatusBadRequest {
		t.Errorf("negative window = %d", rr.Code)
	}
}

// TestIngestSnapshotRotatesFingerprint is the regression test for the
// stale-cache bug: a snapshot-only ingest (no blocks) changes
// first-seen-dependent audit state, so it must rotate the fingerprint and
// retire cached results exactly as an append does.
func TestIngestSnapshotRotatesFingerprint(t *testing.T) {
	s, c, _ := streamFixture(t)
	h := s.Handler()
	blocks := c.Blocks()

	seed := IngestRequest{Dataset: "live", Blocks: []BlockFrame{FrameBlock(blocks[0])}}
	rr := postJSON(t, h, "/v1/ingest", seed)
	if rr.Code != http.StatusOK {
		t.Fatalf("seed ingest = %d: %s", rr.Code, rr.Body.String())
	}
	fp0 := decode[IngestResponse](t, rr).Fingerprint

	// Prime the result cache for the streamed set.
	do(t, h, "POST", "/v1/audits/ppe?dataset=live")
	if !decode[Envelope](t, do(t, h, "POST", "/v1/audits/ppe?dataset=live")).Cached {
		t.Fatal("repeat audit not cached — fixture broken")
	}

	// Snapshot-only ingest: new observer data, zero blocks.
	var tx *chain.Tx
	for _, b := range blocks[1:] {
		if body := b.Body(); len(body) > 0 {
			tx = body[0]
			break
		}
	}
	if tx == nil {
		t.Skip("fixture has no body transactions")
	}
	snapOnly := IngestRequest{Dataset: "live", Mempool: []SnapshotFrame{{
		TimeNS:    blocks[0].Time.UnixNano(),
		TipHeight: blocks[0].Height,
		Txs:       []SnapshotTx{{ID: tx.ID.String(), FirstSeenNS: tx.Time.UnixNano()}},
	}}}
	rr = postJSON(t, h, "/v1/ingest", snapOnly)
	if rr.Code != http.StatusOK {
		t.Fatalf("snapshot ingest = %d: %s", rr.Code, rr.Body.String())
	}
	resp := decode[IngestResponse](t, rr)
	if resp.Snapshots != 1 || resp.Appended != 0 {
		t.Fatalf("snapshot ingest response = %+v", resp)
	}
	if resp.Fingerprint == fp0 {
		t.Fatal("fingerprint did not rotate on snapshot-only ingest")
	}
	env := decode[Envelope](t, do(t, h, "POST", "/v1/audits/ppe?dataset=live"))
	if env.Cached {
		t.Error("audit after snapshot ingest served from stale cache")
	}
	if env.Fingerprint != resp.Fingerprint {
		t.Errorf("audit fingerprint %q != ingest fingerprint %q", env.Fingerprint, resp.Fingerprint)
	}
}

// TestIngestMalformedCreatesNoDataset is the regression test for the
// dataset-creation side effect: a malformed request to a fresh name must
// not register an empty streaming set (or claim the default slot).
func TestIngestMalformedCreatesNoDataset(t *testing.T) {
	s, c, _ := streamFixture(t)
	h := s.Handler()
	blocks := c.Blocks()

	bad := IngestRequest{Dataset: "ghost", Blocks: []BlockFrame{{
		Height: blocks[0].Height, TimeNS: blocks[0].Time.UnixNano(),
		Txs: []TxFrame{{ID: "nothex", Tag: "/P/"}},
	}}}
	if rr := postJSON(t, h, "/v1/ingest", bad); rr.Code != http.StatusBadRequest {
		t.Fatalf("malformed ingest = %d", rr.Code)
	}
	for _, name := range s.DatasetNames() {
		if name == "ghost" {
			t.Fatal("malformed ingest registered dataset \"ghost\"")
		}
	}
	if rr := do(t, h, "POST", "/v1/audits/ppe?dataset=ghost"); rr.Code != http.StatusNotFound {
		t.Errorf("audit on ghost dataset = %d, want 404", rr.Code)
	}
	// A well-formed request to the same name still creates the set.
	good := IngestRequest{Dataset: "ghost", Blocks: []BlockFrame{FrameBlock(blocks[0])}}
	if rr := postJSON(t, h, "/v1/ingest", good); rr.Code != http.StatusOK {
		t.Fatalf("well-formed ingest = %d", rr.Code)
	}
	found := false
	for _, name := range s.DatasetNames() {
		found = found || name == "ghost"
	}
	if !found {
		t.Error("well-formed ingest did not register the dataset")
	}
}

// TestIngestPartialBatchFingerprint pins failure-path consistency: a batch
// that dies mid-way leaves the fingerprint of exactly the applied prefix —
// identical to a server that only ever saw the prefix — and skips the
// batch's snapshots entirely.
func TestIngestPartialBatchFingerprint(t *testing.T) {
	sA, c, _ := streamFixture(t)
	sB, _, _ := streamFixture(t)
	blocks := c.Blocks()
	if len(blocks) < 3 {
		t.Fatal("fixture too small")
	}
	snap := SnapshotFrame{TimeNS: blocks[0].Time.UnixNano(), TipHeight: blocks[0].Height}

	// Server A: [b0, b2] — the gap kills the batch after b0; the snapshot
	// must not apply.
	gap := IngestRequest{Dataset: "live",
		Blocks:  []BlockFrame{FrameBlock(blocks[0]), FrameBlock(blocks[2])},
		Mempool: []SnapshotFrame{snap},
	}
	rrA := postJSON(t, sA.Handler(), "/v1/ingest", gap)
	if rrA.Code != http.StatusConflict {
		t.Fatalf("gap batch = %d: %s", rrA.Code, rrA.Body.String())
	}
	respA := decode[IngestResponse](t, rrA)
	if respA.Appended != 1 || respA.Snapshots != 0 {
		t.Fatalf("gap batch response = %+v", respA)
	}

	// Server B: [b0] alone.
	ok := IngestRequest{Dataset: "live", Blocks: []BlockFrame{FrameBlock(blocks[0])}}
	respB := decode[IngestResponse](t, postJSON(t, sB.Handler(), "/v1/ingest", ok))
	if respA.Fingerprint != respB.Fingerprint {
		t.Errorf("partial-batch fingerprint %q != clean-prefix fingerprint %q", respA.Fingerprint, respB.Fingerprint)
	}

	// Both continue identically from the shared prefix.
	next := IngestRequest{Dataset: "live", Blocks: []BlockFrame{FrameBlock(blocks[1])}}
	fpA := decode[IngestResponse](t, postJSON(t, sA.Handler(), "/v1/ingest", next)).Fingerprint
	fpB := decode[IngestResponse](t, postJSON(t, sB.Handler(), "/v1/ingest", next)).Fingerprint
	if fpA != fpB {
		t.Errorf("post-recovery fingerprints diverged: %q vs %q", fpA, fpB)
	}
}

// TestIngestRetention drives a retention-bounded server: the streaming
// index caps at the horizon while windowed audits over windows ≤ horizon
// stay byte-identical to the unbounded batch reference.
func TestIngestRetention(t *testing.T) {
	const retain = 8
	s, c, _ := streamFixtureCfg(t, func(cfg *Config) { cfg.StreamRetain = retain })
	h := s.Handler()
	blocks := c.Blocks()
	if len(blocks) <= retain+2 {
		t.Skipf("fixture too small: %d blocks", len(blocks))
	}

	for _, b := range blocks {
		req := IngestRequest{Dataset: "live", Blocks: []BlockFrame{FrameBlock(b)}}
		if rr := postJSON(t, h, "/v1/ingest", req); rr.Code != http.StatusOK {
			t.Fatalf("ingest height %d = %d: %s", b.Height, rr.Code, rr.Body.String())
		}
	}

	type health struct {
		Datasets []struct {
			Name     string `json:"name"`
			IndexLen int    `json:"index_len"`
			Retain   int    `json:"retain"`
			Ingested int64  `json:"ingested"`
		} `json:"datasets"`
	}
	hz := decode[health](t, do(t, h, "GET", "/v1/healthz"))
	seen := false
	for _, d := range hz.Datasets {
		if d.Name != "live" {
			continue
		}
		seen = true
		if d.IndexLen != retain {
			t.Errorf("index_len = %d, want horizon %d", d.IndexLen, retain)
		}
		if d.Retain != retain || d.Ingested != int64(len(blocks)) {
			t.Errorf("healthz retain=%d ingested=%d, want %d/%d", d.Retain, d.Ingested, retain, len(blocks))
		}
	}
	if !seen {
		t.Fatal("live dataset missing from healthz")
	}

	// Windowed audits ≤ horizon: byte-identical to the batch CSV set.
	pool := ""
	if set, err := s.lookupSet("main"); err == nil {
		if pools := set.aud.Index().TopPoolsByShare(core.DefaultMinShare); len(pools) > 0 {
			pool = pools[0]
		}
	}
	for _, win := range []int{1, retain / 2, retain} {
		for _, k := range []struct{ name, extra string }{
			{"ppe", ""}, {"lowfee", ""}, {"darkfee", "&pool=" + pool},
		} {
			if k.name == "darkfee" && pool == "" {
				continue
			}
			target := "/v1/audits/" + k.name + "?dataset=%s&format=text" + k.extra + fmt.Sprintf("&window=%d", win)
			want := textBody(t, h, fmt.Sprintf(target, "main"))
			got := textBody(t, h, fmt.Sprintf(target, "live"))
			if got != want {
				t.Errorf("window %d: retained %s diverged from batch:\n--- batch ---\n%s--- retained ---\n%s", win, k.name, want, got)
			}
		}
	}
}

// TestAuditCacheKeysEffectiveWindow posts the three spellings of a
// full-set audit — no window, window=0, and a window past the retained
// count — to one streaming set. They audit the same records, so they share
// one cache entry: the second and third are hits with identical bytes,
// while each envelope still echoes the caller's own params. A window
// inside the horizon keeps its own entry.
func TestAuditCacheKeysEffectiveWindow(t *testing.T) {
	const retain = 8
	s, c, _ := streamFixtureCfg(t, func(cfg *Config) { cfg.StreamRetain = retain })
	h := s.Handler()
	req := IngestRequest{Dataset: "live"}
	for _, b := range c.Blocks() {
		req.Blocks = append(req.Blocks, FrameBlock(b))
	}
	if rr := postJSON(t, h, "/v1/ingest", req); rr.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", rr.Code, rr.Body.String())
	}

	const base = "/v1/audits/ppe?dataset=live"
	var first string
	for i, extra := range []string{"", "&window=0", "&window=100000", fmt.Sprintf("&window=%d", retain)} {
		rr := do(t, h, "POST", base+"&format=text"+extra)
		if rr.Code != http.StatusOK {
			t.Fatalf("%q = %d: %s", extra, rr.Code, rr.Body.String())
		}
		wantHit := strconv.FormatBool(i > 0)
		if got := rr.Header().Get("X-Chainaudit-Cached"); got != wantHit {
			t.Errorf("%q: X-Chainaudit-Cached = %s, want %s", extra, got, wantHit)
		}
		if i == 0 {
			first = rr.Body.String()
		} else if rr.Body.String() != first {
			t.Errorf("%q: body differs from the full-set audit", extra)
		}
	}

	env := decode[Envelope](t, do(t, h, "POST", base+"&window=0"))
	if !env.Cached || env.Params["window"] != "0" {
		t.Errorf("window=0 envelope: cached=%v params=%v, want a hit echoing window=0", env.Cached, env.Params)
	}
	if rr := do(t, h, "POST", base+"&format=text&window=3"); rr.Header().Get("X-Chainaudit-Cached") != "false" {
		t.Error("window=3 inside the horizon was answered from the full-set entry")
	}
}
