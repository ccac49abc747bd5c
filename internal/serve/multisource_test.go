package serve

// Multi-source ingest tests (DESIGN.md §14): the v2 endpoint attributes
// snapshot frames to observation sources (request default, per-frame
// override), v1 stays byte-compatible and rejects attribution, the
// per-source ledger survives WAL replay and checkpoint restore, and every
// rejection — ingest included — answers with the unified error envelope,
// pinned byte-for-byte.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"chainaudit/internal/chain"
)

// snapFor builds one snapshot frame over a block's body transactions,
// optionally attributed to a source.
func snapFor(b *chain.Block, src string) SnapshotFrame {
	sf := SnapshotFrame{TimeNS: b.Time.UnixNano(), TipHeight: b.Height, Source: src}
	for _, tx := range b.Body() {
		sf.Txs = append(sf.Txs, SnapshotTx{ID: tx.ID.String(), FirstSeenNS: tx.Time.UnixNano()})
	}
	return sf
}

// feedV2 posts every batch to the attributed endpoint.
func feedV2(t *testing.T, h http.Handler, batches []IngestRequest) IngestResponse {
	t.Helper()
	var last IngestResponse
	for i, req := range batches {
		rr := postJSON(t, h, "/v2/ingest", req)
		if rr.Code != http.StatusOK {
			t.Fatalf("v2 ingest batch %d = %d: %s", i, rr.Code, rr.Body.String())
		}
		last = decode[IngestResponse](t, rr)
	}
	return last
}

type srcHealth struct {
	Datasets []struct {
		Name    string   `json:"name"`
		Sources []string `json:"sources"`
	} `json:"datasets"`
}

func healthSources(t *testing.T, h http.Handler, dataset string) []string {
	t.Helper()
	hz := decode[srcHealth](t, do(t, h, "GET", "/v1/healthz"))
	for _, d := range hz.Datasets {
		if d.Name == dataset {
			return d.Sources
		}
	}
	t.Fatalf("dataset %q missing from healthz", dataset)
	return nil
}

func TestIngestV2SourceAttribution(t *testing.T) {
	s, c, _ := streamFixture(t)
	h := s.Handler()
	blocks := c.Blocks()
	if len(blocks) < 3 {
		t.Fatal("fixture too small")
	}
	b0, b1, b2 := blocks[0], blocks[1], blocks[2]
	if len(b0.Body()) == 0 || len(b1.Body()) == 0 || len(b2.Body()) == 0 {
		t.Skip("fixture blocks have no body transactions")
	}

	// Request-level attribution: every frame of this batch lands under s1.
	req1 := IngestRequest{Dataset: "live", Source: "s1",
		Blocks: []BlockFrame{FrameBlock(b0)}, Mempool: []SnapshotFrame{snapFor(b0, "")}}
	rr := postJSON(t, h, "/v2/ingest", req1)
	if rr.Code != http.StatusOK {
		t.Fatalf("v2 ingest = %d: %s", rr.Code, rr.Body.String())
	}
	if resp := decode[IngestResponse](t, rr); resp.API != APIv2 || resp.Snapshots != 1 {
		t.Fatalf("v2 response = %+v", resp)
	}
	// Per-frame override: the frame's own Source beats the request default.
	req2 := IngestRequest{Dataset: "live", Source: "s1",
		Blocks: []BlockFrame{FrameBlock(b1)}, Mempool: []SnapshotFrame{snapFor(b1, "s2")}}
	if rr := postJSON(t, h, "/v2/ingest", req2); rr.Code != http.StatusOK {
		t.Fatalf("v2 override ingest = %d: %s", rr.Code, rr.Body.String())
	}

	set, err := s.lookupSet("live")
	if err != nil {
		t.Fatal(err)
	}
	ix := set.stream.Index()
	tx0, tx1 := b0.Body()[0], b1.Body()[0]
	if bySrc := ix.SourceFirstSeen(tx0.ID); len(bySrc) != 1 || !bySrc["s1"].Equal(tx0.Time) {
		t.Errorf("request-default attribution = %v, want s1 at %v", bySrc, tx0.Time)
	}
	if bySrc := ix.SourceFirstSeen(tx1.ID); len(bySrc) != 1 || !bySrc["s2"].Equal(tx1.Time) {
		t.Errorf("frame-override attribution = %v, want s2 at %v", bySrc, tx1.Time)
	}
	// Attributed observations feed the merged min-time view too.
	if got, ok := ix.FirstSeen(tx0.ID); !ok || !got.Equal(tx0.Time) {
		t.Errorf("merged FirstSeen = %v, %t", got, ok)
	}
	if got := ix.Sources(); !reflect.DeepEqual(got, []string{"s1", "s2"}) {
		t.Errorf("Sources() = %v, want [s1 s2]", got)
	}
	if got := healthSources(t, h, "live"); !reflect.DeepEqual(got, []string{"s1", "s2"}) {
		t.Errorf("healthz sources = %v, want [s1 s2]", got)
	}

	// A sourceless request through /v2/ingest is legal and anonymous: it
	// merges into the min-time view but grows no ledger entry.
	req3 := IngestRequest{Dataset: "live",
		Blocks: []BlockFrame{FrameBlock(b2)}, Mempool: []SnapshotFrame{snapFor(b2, "")}}
	rr = postJSON(t, h, "/v2/ingest", req3)
	if rr.Code != http.StatusOK {
		t.Fatalf("sourceless v2 ingest = %d: %s", rr.Code, rr.Body.String())
	}
	if resp := decode[IngestResponse](t, rr); resp.API != APIv2 {
		t.Errorf("sourceless v2 response API = %q", resp.API)
	}
	tx2 := b2.Body()[0]
	if _, ok := ix.FirstSeen(tx2.ID); !ok {
		t.Error("anonymous snapshot missing from merged view")
	}
	if bySrc := ix.SourceFirstSeen(tx2.ID); bySrc != nil {
		t.Errorf("anonymous snapshot grew a ledger entry: %v", bySrc)
	}
	if got := ix.Sources(); !reflect.DeepEqual(got, []string{"s1", "s2"}) {
		t.Errorf("Sources() after anonymous ingest = %v", got)
	}

	// The legacy endpoint rejects attribution wherever it appears.
	for name, bad := range map[string]IngestRequest{
		"request-level": {Dataset: "live", Source: "s1"},
		"frame-level":   {Dataset: "live", Mempool: []SnapshotFrame{{TimeNS: b0.Time.UnixNano(), Source: "s2"}}},
	} {
		rr := postJSON(t, h, "/v1/ingest", bad)
		if rr.Code != http.StatusBadRequest {
			t.Errorf("%s attribution via v1 = %d, want 400", name, rr.Code)
			continue
		}
		env := decode[ErrorEnvelope](t, rr)
		if env.API != ErrorAPI || !strings.Contains(env.Error, "/v2/ingest") {
			t.Errorf("%s attribution envelope = %+v", name, env)
		}
	}
}

// TestV2FrameWireCompat pins the byte-compatibility contract: sourceless
// requests — the entire v1 universe, wire and WAL — marshal without any
// attribution key, and attributed frames round-trip through the one
// versioned schema.
func TestV2FrameWireCompat(t *testing.T) {
	v1 := IngestRequest{Dataset: "live",
		Blocks:  []BlockFrame{{Height: 1, TimeNS: 2}},
		Mempool: []SnapshotFrame{{TimeNS: 3, TipHeight: 1, Txs: []SnapshotTx{{ID: "ab", FirstSeenNS: 4}}}}}
	raw, err := json.Marshal(&v1)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("source")) {
		t.Errorf("sourceless request leaked an attribution key: %s", raw)
	}
	var back IngestRequest
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, v1) {
		t.Errorf("v1 round trip drifted: %+v", back)
	}

	v2 := IngestRequest{Dataset: "live", Source: "s1",
		Mempool: []SnapshotFrame{{TimeNS: 3, Source: "s2"}}}
	raw, err = json.Marshal(&v2)
	if err != nil {
		t.Fatal(err)
	}
	var back2 IngestRequest
	if err := json.Unmarshal(raw, &back2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back2, v2) {
		t.Errorf("attributed round trip drifted: %+v", back2)
	}
	if back2.attributedSource() != "s1" || v1.attributedSource() != "" {
		t.Errorf("attributedSource = %q / %q", back2.attributedSource(), v1.attributedSource())
	}
}

// TestWALReplayPreservesAttribution drives attributed batches into a durable
// set, kills the server, and demands the per-source ledger back — first from
// WAL-line replay (checkpoints held off), then, after one more batch seals
// the log and its checkpoint is written, from that checkpoint alone
// (ckptSrcSeen round trip), with healthz reporting the same sources
// throughout.
func TestWALReplayPreservesAttribution(t *testing.T) {
	dir := t.TempDir()
	durableEvery := func(every int) func(*Config) {
		return func(cfg *Config) {
			cfg.StreamDir = dir
			cfg.CheckpointEvery = every
		}
	}
	sA, c, _ := streamFixtureCfg(t, durableEvery(1000)) // keep every attributed line in the WAL
	batches := mkIngestBatches(c, "live", 2)
	if len(batches) < 4 {
		t.Fatalf("fixture too small: %d batches", len(batches))
	}
	for i := range batches {
		batches[i].Source = "s1"
		if i%2 == 1 {
			batches[i].Source = "s2"
		}
	}
	// One frame-level override rides the WAL alongside the request defaults.
	batches[0].Mempool[0].Source = "s3"
	n := len(batches) - 1
	feedV2(t, sA.Handler(), batches[:n])

	setA, err := sA.lookupSet("live")
	if err != nil {
		t.Fatal(err)
	}
	wantLedger := setA.stream.Index().SourceSeenTimes().Clone()
	wantSources := setA.stream.Index().Sources()
	if !reflect.DeepEqual(wantSources, []string{"s1", "s2", "s3"}) {
		t.Fatalf("pre-crash Sources() = %v", wantSources)
	}
	// kill -9: no Close.

	// The restarted server seals its log at the next batch.
	sB, _, _ := streamFixtureCfg(t, durableEvery(len(batches)))
	hz, i := healthFor(t, sB.Handler(), "live")
	if rec := hz.Datasets[i].Recovery; rec == nil || rec.WALLines != n {
		t.Fatalf("recovery = %+v, want %d replayed WAL lines", rec, n)
	}
	setB, err := sB.lookupSet("live")
	if err != nil {
		t.Fatal(err)
	}
	if !setB.stream.Index().SourceSeenTimes().Equal(wantLedger) {
		t.Error("WAL-replayed ledger diverged from pre-crash ledger")
	}
	if got := setB.stream.Index().Sources(); !reflect.DeepEqual(got, wantSources) {
		t.Errorf("WAL-replayed Sources() = %v, want %v", got, wantSources)
	}
	if got := healthSources(t, sB.Handler(), "live"); !reflect.DeepEqual(got, wantSources) {
		t.Errorf("healthz sources after replay = %v", got)
	}
	feedV2(t, sB.Handler(), batches[n:])
	settleWrites(t, sB)
	wantLedger = setB.stream.Index().SourceSeenTimes().Clone()
	// kill -9 again: the checkpoint the seal wrote covers the whole log.

	sC, _, _ := streamFixtureCfg(t, durableEvery(1000))
	hz, i = healthFor(t, sC.Handler(), "live")
	if rec := hz.Datasets[i].Recovery; rec == nil || rec.CheckpointBlocks == 0 || rec.WALLines != 0 {
		t.Fatalf("second recovery = %+v, want a checkpoint restore and zero WAL lines", rec)
	}
	setC, err := sC.lookupSet("live")
	if err != nil {
		t.Fatal(err)
	}
	if !setC.stream.Index().SourceSeenTimes().Equal(wantLedger) {
		t.Error("checkpoint-restored ledger diverged from the sealed ledger")
	}
	if got := setC.stream.Index().Sources(); !reflect.DeepEqual(got, wantSources) {
		t.Errorf("checkpoint-restored Sources() = %v, want %v", got, wantSources)
	}
}

// TestIngestWALFailureEnvelope pins the 503 path onto the unified envelope:
// a WAL append failure answers with the error schema while carrying the
// progress fields a feeder needs to re-ship safely.
func TestIngestWALFailureEnvelope(t *testing.T) {
	dir := t.TempDir()
	s, c, _ := streamFixtureCfg(t, func(cfg *Config) {
		cfg.StreamDir = dir
		cfg.Chaos = "seed=1,wal.crash=1"
	})
	req := IngestRequest{Dataset: "live", Blocks: []BlockFrame{FrameBlock(c.Blocks()[0])}}
	rr := postJSON(t, s.Handler(), "/v1/ingest", req)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("WAL failure = %d: %s", rr.Code, rr.Body.String())
	}
	env := decode[ErrorEnvelope](t, rr)
	if env.API != ErrorAPI || env.Code != http.StatusServiceUnavailable || env.Dataset != "live" {
		t.Errorf("WAL failure envelope = %+v", env)
	}
	if !strings.Contains(env.Error, "injected crash") {
		t.Errorf("WAL failure error = %q", env.Error)
	}
	if env.Fingerprint == "" || env.Appended != 0 {
		t.Errorf("WAL failure progress fields = %+v", env)
	}
}

var elapsedRe = regexp.MustCompile(`"elapsed_ms":[0-9.eE+-]+`)

// TestErrorEnvelopeGoldenBytes pins the unified error schema byte-for-byte
// across every handler family — audits, routing, and the ingest rejection
// codes — with only the wall-clock elapsed_ms field normalized. Any field
// rename, reorder, or added key breaks these strings deliberately.
func TestErrorEnvelopeGoldenBytes(t *testing.T) {
	s, _, _ := streamFixture(t)
	h := s.Handler()
	sTiny, c, _ := streamFixtureCfg(t, func(cfg *Config) { cfg.MaxIngestBytes = 64 })
	oversize := IngestRequest{Dataset: "live", Blocks: []BlockFrame{FrameBlock(c.Blocks()[0])}}

	cases := []struct {
		name  string
		rr    *httptest.ResponseRecorder
		code  int
		allow string
		want  string
	}{
		{
			name: "unknown audit",
			rr:   do(t, h, "POST", "/v1/audits/nonsense"),
			code: http.StatusNotFound,
			want: `{"api":"chainaudit.error/v1","code":404,"error":"unknown audit \"nonsense\" (ppe, selfinterest, lowfee, scam, darkfee, divergence)","kind":"audit","name":"nonsense","elapsed_ms":0}`,
		},
		{
			name: "unknown route",
			rr:   do(t, h, "GET", "/nope"),
			code: http.StatusNotFound,
			want: `{"api":"chainaudit.error/v1","code":404,"error":"no such endpoint: GET /nope","elapsed_ms":0}`,
		},
		{
			name:  "method mismatch",
			rr:    do(t, h, "GET", "/v1/audits/ppe"),
			code:  http.StatusMethodNotAllowed,
			allow: "POST",
			want:  `{"api":"chainaudit.error/v1","code":405,"error":"method GET not allowed for /v1/audits/ppe (allow: POST)","elapsed_ms":0}`,
		},
		{
			name: "ingest missing dataset",
			rr:   postJSON(t, h, "/v1/ingest", IngestRequest{}),
			code: http.StatusBadRequest,
			want: `{"api":"chainaudit.error/v1","code":400,"error":"ingest needs a dataset name","elapsed_ms":0}`,
		},
		{
			name: "v1 attribution",
			rr:   postJSON(t, h, "/v1/ingest", IngestRequest{Dataset: "live", Source: "s1"}),
			code: http.StatusBadRequest,
			want: `{"api":"chainaudit.error/v1","code":400,"error":"source attribution (\"s1\") requires POST /v2/ingest","dataset":"live","elapsed_ms":0}`,
		},
		{
			name: "ingest into batch set",
			rr:   postJSON(t, h, "/v1/ingest", IngestRequest{Dataset: "main"}),
			code: http.StatusConflict,
			want: `{"api":"chainaudit.error/v1","code":409,"error":"dataset \"main\" is a startup-loaded batch set; ingest targets streaming sets only","dataset":"main","elapsed_ms":0}`,
		},
		{
			name: "oversize body",
			rr:   postJSON(t, sTiny.Handler(), "/v1/ingest", oversize),
			code: http.StatusRequestEntityTooLarge,
			want: `{"api":"chainaudit.error/v1","code":413,"error":"bad ingest body: body exceeds 64 bytes","elapsed_ms":0}`,
		},
	}
	for _, tc := range cases {
		if tc.rr.Code != tc.code {
			t.Errorf("%s: status = %d, want %d: %s", tc.name, tc.rr.Code, tc.code, tc.rr.Body.String())
			continue
		}
		if got := tc.rr.Header().Get("Allow"); got != tc.allow {
			t.Errorf("%s: Allow = %q, want %q", tc.name, got, tc.allow)
		}
		got := elapsedRe.ReplaceAllString(tc.rr.Body.String(), `"elapsed_ms":0`)
		if got != tc.want+"\n" {
			t.Errorf("%s: envelope bytes drifted:\ngot  %q\nwant %q", tc.name, got, tc.want+"\n")
		}
	}
}
