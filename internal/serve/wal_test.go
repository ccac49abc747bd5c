package serve

// Durable-streaming tests (DESIGN.md §13): the WAL + checkpoint machinery
// must make a kill -9 invisible — a server restarted over its stream
// directory answers every audit byte-identically to one that never died —
// while torn final lines truncate-and-warn, checkpoints compact the log
// without disturbing retention semantics, and injected WAL faults only ever
// cost a re-shipped batch, never an acknowledged one.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chainaudit/internal/chain"
	"chainaudit/internal/core"
)

// mkIngestBatches slices the chain into ingest requests of batchSize blocks,
// each carrying one mempool snapshot with the batch transactions' own times
// as first-seen — the shape cmd/streamfeed and the live observer produce.
func mkIngestBatches(c *chain.Chain, dataset string, batchSize int) []IngestRequest {
	blocks := c.Blocks()
	var out []IngestRequest
	for i := 0; i < len(blocks); i += batchSize {
		end := i + batchSize
		if end > len(blocks) {
			end = len(blocks)
		}
		req := IngestRequest{Dataset: dataset}
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
		out = append(out, req)
	}
	return out
}

// feedBatches posts every batch and returns the final response.
func feedBatches(t *testing.T, h http.Handler, batches []IngestRequest) IngestResponse {
	t.Helper()
	var last IngestResponse
	for i, req := range batches {
		rr := postJSON(t, h, "/v1/ingest", req)
		if rr.Code != http.StatusOK {
			t.Fatalf("ingest batch %d = %d: %s", i, rr.Code, rr.Body.String())
		}
		last = decode[IngestResponse](t, rr)
	}
	return last
}

// auditTexts renders the audit surfaces equivalence tests compare: every
// full-chain audit plus the sliding-window variants.
func auditTexts(t *testing.T, h http.Handler, dataset string, win int) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, k := range []string{"ppe", "lowfee", "selfinterest"} {
		out[k] = textBody(t, h, "/v1/audits/"+k+"?dataset="+dataset+"&format=text")
	}
	for _, k := range []string{"ppe", "lowfee"} {
		out[k+"-win"] = textBody(t, h, fmt.Sprintf("/v1/audits/%s?dataset=%s&format=text&window=%d", k, dataset, win))
	}
	return out
}

type walHealth struct {
	Datasets []struct {
		Name        string `json:"name"`
		Fingerprint string `json:"fingerprint"`
		IndexLen    int    `json:"index_len"`
		Retain      int    `json:"retain"`
		Ingested    int64  `json:"ingested"`
		Snapshots   int64  `json:"snapshots"`
		Watermark   *struct {
			Height int64 `json:"height"`
		} `json:"watermark"`
		Recovery *recoveryInfo `json:"recovery"`
	} `json:"datasets"`
}

func healthFor(t *testing.T, h http.Handler, dataset string) (walHealth, int) {
	t.Helper()
	hz := decode[walHealth](t, do(t, h, "GET", "/v1/healthz"))
	for i, d := range hz.Datasets {
		if d.Name == dataset {
			return hz, i
		}
	}
	t.Fatalf("dataset %q missing from healthz", dataset)
	return hz, -1
}

// TestWALCrashEquivalence is the headline durability invariant: kill the
// server (no Close — the kill -9 analogue) mid-stream, restart over the same
// stream directory, finish the feed, and every full and windowed audit is
// byte-identical to an uninterrupted run — with zero lost snapshot frames.
func TestWALCrashEquivalence(t *testing.T) {
	dir := t.TempDir()
	durable := func(cfg *Config) {
		cfg.StreamDir = dir
		cfg.CheckpointEvery = 3 // several checkpoint cycles before the crash
	}
	sA, c, _ := streamFixtureCfg(t, durable)
	const bs = 2
	batches := mkIngestBatches(c, "live", bs)
	if len(batches) < 6 {
		t.Skipf("fixture too small: %d batches", len(batches))
	}
	cut := len(batches) / 2

	feedBatches(t, sA.Handler(), batches[:cut])
	// No sA.Close(): the process dies here with WAL state mid-cycle.

	sB, _, _ := streamFixtureCfg(t, durable)
	h := sB.Handler()
	hz, i := healthFor(t, h, "live")
	live := hz.Datasets[i]
	if live.Recovery == nil {
		t.Fatal("recovered set reports no recovery info")
	}
	if got := live.Recovery.CheckpointBlocks + live.Recovery.WALBlocks; got != bs*cut {
		t.Errorf("recovery covered %d blocks (ckpt %d + wal %d), want %d",
			got, live.Recovery.CheckpointBlocks, live.Recovery.WALBlocks, bs*cut)
	}
	if live.Snapshots != int64(cut) {
		t.Errorf("recovered snapshots = %d, want %d (zero lost frames)", live.Snapshots, cut)
	}
	wantWM := batches[cut-1].Blocks[len(batches[cut-1].Blocks)-1].Height
	if live.Watermark == nil || live.Watermark.Height != wantWM {
		t.Errorf("recovered watermark = %+v, want height %d", live.Watermark, wantWM)
	}

	gotLast := feedBatches(t, h, batches[cut:])

	// The uninterrupted reference: same feed, no durability, no restart.
	sRef, _, _ := streamFixture(t)
	wantLast := feedBatches(t, sRef.Handler(), batches)
	if gotLast.Fingerprint != wantLast.Fingerprint {
		t.Errorf("post-restart fingerprint %q != uninterrupted %q", gotLast.Fingerprint, wantLast.Fingerprint)
	}
	want := auditTexts(t, sRef.Handler(), "live", 20)
	got := auditTexts(t, h, "live", 20)
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: recovered audit diverged from uninterrupted run:\n--- uninterrupted ---\n%s--- recovered ---\n%s", k, w, got[k])
		}
	}
	hz, i = healthFor(t, h, "live")
	if hz.Datasets[i].Snapshots != int64(len(batches)) {
		t.Errorf("final snapshots = %d, want %d", hz.Datasets[i].Snapshots, len(batches))
	}

	// A second restart over the now-complete directory is a no-op replay:
	// the recovery checkpoint normalized everything, so the WAL is empty and
	// the audits still match.
	if err := sB.Close(); err != nil {
		t.Fatalf("graceful close: %v", err)
	}
	sC, _, _ := streamFixtureCfg(t, durable)
	hz, i = healthFor(t, sC.Handler(), "live")
	if rec := hz.Datasets[i].Recovery; rec == nil || rec.WALLines != 0 {
		t.Errorf("second recovery replayed %+v, want zero WAL lines", rec)
	}
	got = auditTexts(t, sC.Handler(), "live", 20)
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: twice-recovered audit diverged", k)
		}
	}
}

// TestWALTornFinalLine pins truncate-and-warn: a torn final WAL line (the
// process died mid-append) is cut off on boot, the feeder re-ships that
// batch, and the stream converges on the uninterrupted bytes. A torn line
// mid-file is data loss and must refuse to boot instead.
func TestWALTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	durable := func(cfg *Config) {
		cfg.StreamDir = dir
		cfg.CheckpointEvery = 1000 // keep every line in the WAL
	}
	sA, c, _ := streamFixtureCfg(t, durable)
	batches := mkIngestBatches(c, "live", 4)
	if len(batches) < 4 {
		t.Skipf("fixture too small: %d batches", len(batches))
	}
	feedBatches(t, sA.Handler(), batches[:3])

	// The process dies midway through appending batch 3: a prefix of its
	// line lands with no newline.
	line, err := json.Marshal(&batches[3])
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "live"+walSuffix)
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(line[:2*len(line)/3]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	sB, _, _ := streamFixtureCfg(t, durable)
	h := sB.Handler()
	hz, i := healthFor(t, h, "live")
	rec := hz.Datasets[i].Recovery
	if rec == nil || !rec.Truncated {
		t.Fatalf("recovery = %+v, want truncated torn tail", rec)
	}
	if rec.WALLines != 3 || rec.WALBlocks != 12 {
		t.Errorf("recovery replayed %d lines / %d blocks, want 3 / 12", rec.WALLines, rec.WALBlocks)
	}
	// The feeder saw no 200 for the torn batch and re-ships it; the stream
	// then matches a server that never crashed.
	gotLast := feedBatches(t, h, batches[3:4])
	sRef, _, _ := streamFixture(t)
	wantLast := feedBatches(t, sRef.Handler(), batches[:4])
	if gotLast.Fingerprint != wantLast.Fingerprint {
		t.Errorf("post-re-ship fingerprint %q != uninterrupted %q", gotLast.Fingerprint, wantLast.Fingerprint)
	}

	// Mid-file tears are not recoverable silently: a fresh directory whose
	// WAL holds a damaged line before a healthy one refuses to boot.
	dir2 := t.TempDir()
	var buf bytes.Buffer
	l0, _ := json.Marshal(&batches[0])
	l1, _ := json.Marshal(&batches[1])
	buf.Write(l0)
	buf.WriteByte('\n')
	buf.WriteString("{torn mid-file")
	buf.WriteByte('\n')
	buf.Write(l1)
	buf.WriteByte('\n')
	if err := os.WriteFile(filepath.Join(dir2, "live"+walSuffix), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{StreamDir: dir2})
	if err == nil || !strings.Contains(err.Error(), "wal line 2") {
		t.Errorf("mid-file tear boot error = %v, want wal line 2 failure", err)
	}
}

// TestWALCheckpointRetentionInterplay drives durability and retention
// together: checkpoints must serialize exactly the retained window plus the
// compacted aggregates, so a restart under StreamRetain preserves windowed
// audit bytes, the cumulative ingest denominator, and the horizon.
func TestWALCheckpointRetentionInterplay(t *testing.T) {
	const retain = 8
	dir := t.TempDir()
	durable := func(cfg *Config) {
		cfg.StreamDir = dir
		cfg.StreamRetain = retain
		cfg.CheckpointEvery = 5
	}
	sA, c, _ := streamFixtureCfg(t, durable)
	batches := mkIngestBatches(c, "live", 1) // one block per batch: many compactions
	if len(batches) <= retain+4 {
		t.Skipf("fixture too small: %d batches", len(batches))
	}
	cut := 2 * len(batches) / 3
	feedBatches(t, sA.Handler(), batches[:cut])
	// kill -9: no Close.

	sB, _, _ := streamFixtureCfg(t, durable)
	h := sB.Handler()
	feedBatches(t, h, batches[cut:])

	hz, i := healthFor(t, h, "live")
	live := hz.Datasets[i]
	if live.IndexLen != retain || live.Retain != retain {
		t.Errorf("index_len=%d retain=%d, want horizon %d", live.IndexLen, live.Retain, retain)
	}
	if live.Ingested != int64(len(batches)) {
		t.Errorf("ingested = %d, want full feed %d", live.Ingested, len(batches))
	}
	if live.Snapshots != int64(len(batches)) {
		t.Errorf("snapshots = %d, want %d", live.Snapshots, len(batches))
	}

	// Windowed audits across the horizon: byte-identical to an uninterrupted
	// retained server and to the unbounded batch reference.
	sRef, _, _ := streamFixtureCfg(t, func(cfg *Config) { cfg.StreamRetain = retain })
	feedBatches(t, sRef.Handler(), batches)
	for _, win := range []int{1, retain / 2, retain} {
		for _, k := range []string{"ppe", "lowfee"} {
			target := fmt.Sprintf("/v1/audits/%s?dataset=%%s&format=text&window=%d", k, win)
			want := textBody(t, sRef.Handler(), fmt.Sprintf(target, "live"))
			got := textBody(t, h, fmt.Sprintf(target, "live"))
			if got != want {
				t.Errorf("window %d %s: restarted retained audit diverged from uninterrupted", win, k)
			}
			batchRef := textBody(t, h, fmt.Sprintf(target, "main"))
			if got != batchRef {
				t.Errorf("window %d %s: restarted retained audit diverged from batch reference", win, k)
			}
		}
	}

	// Un-windowed audits read the retained horizon on every path: the
	// restarted set, the uninterrupted one, and the set's own window=0 and
	// window=retain answers all agree — the restart restores exactly the
	// retained records, so an audit that walked anything else would drift.
	main, err := sB.lookupSet("main")
	if err != nil {
		t.Fatal(err)
	}
	pool := main.aud.Index().TopPoolsByShare(core.DefaultMinShare)[0]
	addr := c.Tip().Body()[0].Outputs[0].Address
	for _, q := range []string{"ppe?", "lowfee?", "darkfee?pool=" + pool + "&",
		"scam?address=" + string(addr) + "&", "selfinterest?windows=2&"} {
		target := "/v1/audits/" + q + "dataset=live&format=text"
		got := textBody(t, h, target)
		if want := textBody(t, sRef.Handler(), target); got != want {
			t.Errorf("%s: restarted retained set diverged from uninterrupted:\n--- uninterrupted ---\n%s--- restarted ---\n%s", q, want, got)
		}
		if strings.HasPrefix(q, "scam") || strings.HasPrefix(q, "selfinterest") {
			continue // no sliding-window variant
		}
		for _, win := range []int{0, retain} {
			if w := textBody(t, h, fmt.Sprintf("%s&window=%d", target, win)); got != w {
				t.Errorf("%s: full audit of the retained set diverged from window=%d:\n--- window ---\n%s--- full ---\n%s", q, win, w, got)
			}
		}
	}
	// A checkpoint write still running when the test ends would race the
	// removal of its temporary directory.
	settleWrites(t, sB)
}

// TestLegacyCheckpointRecovers pins checkpoint compatibility: a checkpoint
// in the earlier format, which also carried the window auditor's snapshot
// bookkeeping (win_snapshots, last_tip, tip_seen), still recovers — with
// its WAL suffix replayed — to audits byte-identical to a set that never
// restarted.
func TestLegacyCheckpointRecovers(t *testing.T) {
	dir := t.TempDir()
	durable := func(cfg *Config) {
		cfg.StreamDir = dir
		cfg.CheckpointEvery = 3
	}
	sA, c, _ := streamFixtureCfg(t, durable)
	batches := mkIngestBatches(c, "live", 2)
	if len(batches) < 8 {
		t.Skipf("fixture too small: %d batches", len(batches))
	}
	feedBatches(t, sA.Handler(), batches)
	// kill -9: no Close, so recovery replays the WAL past the checkpoint.
	// The newest checkpoint is the one to doctor, so its write must end.
	settleWrites(t, sA)
	files, err := scanStreamDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := int64(0)
	for _, g := range files["live"].ckpts {
		newest = max(newest, g)
	}
	if newest == 0 {
		t.Fatal("no checkpoint was written")
	}
	path := sA.newWAL("live").ckptPath(newest)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy := bytes.Replace(raw, []byte(`,"blocks":[`), []byte(fmt.Sprintf(
		`,"win_snapshots":%d,"last_tip":%d,"tip_seen":true,"blocks":[`, len(batches), c.Tip().Height)), 1)
	if bytes.Equal(legacy, raw) {
		t.Fatal("checkpoint has no blocks field to anchor the legacy fields")
	}
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	sB, _, _ := streamFixtureCfg(t, durable)
	sRef, _, _ := streamFixture(t)
	feedBatches(t, sRef.Handler(), batches)
	want, got := auditTexts(t, sRef.Handler(), "live", 8), auditTexts(t, sB.Handler(), "live", 8)
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("%s: legacy-checkpoint recovery diverged from uninterrupted:\n--- uninterrupted ---\n%s--- recovered ---\n%s", k, want[k], got[k])
		}
	}
	hz, i := healthFor(t, sB.Handler(), "live")
	if rec := hz.Datasets[i]; rec.Recovery == nil || rec.Recovery.CheckpointBlocks == 0 || rec.Snapshots != int64(len(batches)) {
		t.Errorf("recovered set: recovery %+v snapshots %d, want a checkpoint restore and %d snapshots", rec.Recovery, rec.Snapshots, len(batches))
	}
}

// TestWALChaosCrashRestartLoop runs the feed under injected WAL faults: torn
// and crashed appends 503 without applying, the "process" is rebooted (a new
// Server over the same directory), the batch is re-shipped, and the final
// state is byte-identical to a fault-free run — acknowledged batches are
// never lost and rejected ones are never half-applied.
func TestWALChaosCrashRestartLoop(t *testing.T) {
	dir := t.TempDir()
	durable := func(cfg *Config) {
		cfg.StreamDir = dir
		cfg.CheckpointEvery = 4
		cfg.Chaos = "seed=9,wal.tear=0.2,wal.crash=0.1"
	}
	srv, c, _ := streamFixtureCfg(t, durable)
	h := srv.Handler()
	batches := mkIngestBatches(c, "live", 2)
	if len(batches) < 8 {
		t.Skipf("fixture too small: %d batches", len(batches))
	}

	restarts := 0
	for i := 0; i < len(batches); {
		rr := postJSON(t, h, "/v1/ingest", batches[i])
		switch rr.Code {
		case http.StatusOK:
			i++
		case http.StatusServiceUnavailable:
			// The WAL broke mid-append: this server is "dead". Reboot over
			// the same directory and re-ship the unacknowledged batch.
			restarts++
			if restarts > 100 {
				t.Fatal("chaos loop did not converge after 100 restarts")
			}
			srv, _, _ = streamFixtureCfg(t, durable)
			h = srv.Handler()
		default:
			t.Fatalf("ingest batch %d = %d: %s", i, rr.Code, rr.Body.String())
		}
	}
	if restarts == 0 {
		t.Fatal("chaos plan injected no WAL faults; the test exercised nothing")
	}

	sRef, _, _ := streamFixture(t)
	wantLast := feedBatches(t, sRef.Handler(), batches)
	hz, i := healthFor(t, h, "live")
	live := hz.Datasets[i]
	if live.Fingerprint != wantLast.Fingerprint {
		t.Errorf("chaos-run fingerprint %q != fault-free %q", live.Fingerprint, wantLast.Fingerprint)
	}
	if live.Snapshots != int64(len(batches)) {
		t.Errorf("snapshots = %d, want %d (zero lost frames)", live.Snapshots, len(batches))
	}
	want := auditTexts(t, sRef.Handler(), "live", 16)
	got := auditTexts(t, h, "live", 16)
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: chaos-run audit diverged from fault-free run", k)
		}
	}
	t.Logf("converged after %d restarts", restarts)
}

// TestIngestBoundsAndNames covers the ingest hardening: oversize bodies are
// 413, durable streaming rejects unusable dataset names, and both bump the
// rejects counter.
func TestIngestBoundsAndNames(t *testing.T) {
	dir := t.TempDir()
	s, c, _ := streamFixtureCfg(t, func(cfg *Config) {
		cfg.StreamDir = dir
		cfg.MaxIngestBytes = 512
	})
	h := s.Handler()
	blocks := c.Blocks()

	big := IngestRequest{Dataset: "live"}
	for len(big.Blocks) < 8 {
		big.Blocks = append(big.Blocks, FrameBlock(blocks[len(big.Blocks)]))
	}
	rr := postJSON(t, h, "/v1/ingest", big)
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize body = %d, want 413", rr.Code)
	}
	if !strings.Contains(decode[IngestResponse](t, rr).Error, "body exceeds") {
		t.Errorf("oversize error = %s", rr.Body.String())
	}

	// Name validation happens before any frame parsing, so tiny block-less
	// requests exercise it under the low body cap.
	for _, name := range []string{"../escape", ".hidden", "sp ace", "a/b"} {
		small := IngestRequest{Dataset: name}
		if rr := postJSON(t, h, "/v1/ingest", small); rr.Code != http.StatusBadRequest {
			t.Errorf("name %q = %d, want 400", name, rr.Code)
		}
	}
	// A well-formed request under the cap still lands.
	ok := IngestRequest{Dataset: "live", Mempool: []SnapshotFrame{{
		TimeNS: blocks[0].Time.UnixNano(), TipHeight: blocks[0].Height,
	}}}
	if rr := postJSON(t, h, "/v1/ingest", ok); rr.Code != http.StatusOK {
		t.Errorf("small request = %d: %s", rr.Code, rr.Body.String())
	}

	m := decode[struct {
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}](t, do(t, h, "GET", "/v1/metrics"))
	if m.Metrics.Counters["serve.ingest.rejects"] == 0 {
		t.Error("serve.ingest.rejects did not count the rejections")
	}
}

// TestStreamConfigValidation pins the durable-streaming config surface: a
// bad fsync policy fails fast, every valid policy boots, and a server may
// boot from a stream directory alone.
func TestStreamConfigValidation(t *testing.T) {
	if _, err := New(Config{StreamDir: t.TempDir(), StreamFsync: "sometimes"}); err == nil {
		t.Error("unknown fsync policy accepted")
	}
	for _, policy := range []string{"", "batch", "always", "off"} {
		s, err := New(Config{StreamDir: t.TempDir(), StreamFsync: policy})
		if err != nil {
			t.Errorf("policy %q: %v", policy, err)
			continue
		}
		if err := s.Close(); err != nil {
			t.Errorf("policy %q close: %v", policy, err)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Error("no data sets accepted")
	}
}

// TestWALFsyncAlwaysSurvives drives a feed under the strictest policy and
// restarts, confirming the policy knob reaches the WAL and the state
// survives identically.
func TestWALFsyncAlwaysSurvives(t *testing.T) {
	dir := t.TempDir()
	durable := func(cfg *Config) {
		cfg.StreamDir = dir
		cfg.StreamFsync = "always"
	}
	sA, c, _ := streamFixtureCfg(t, durable)
	batches := mkIngestBatches(c, "live", 8)
	wantLast := feedBatches(t, sA.Handler(), batches)
	// kill -9, reboot.
	sB, _, _ := streamFixtureCfg(t, durable)
	hz, i := healthFor(t, sB.Handler(), "live")
	if hz.Datasets[i].Fingerprint != wantLast.Fingerprint {
		t.Errorf("recovered fingerprint %q != pre-kill %q", hz.Datasets[i].Fingerprint, wantLast.Fingerprint)
	}
}
