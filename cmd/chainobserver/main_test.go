package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chainaudit/internal/core"
	"chainaudit/internal/dataset"
	"chainaudit/internal/poolid"
	"chainaudit/internal/serve"
)

// fixtureCSV writes the cached BuilderC chain as a CSV and returns its path
// plus the round-tripped chain (the batch reference).
func fixtureCSV(t *testing.T) (string, *dataset.Dataset) {
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
	return path, ds
}

// TestLiveFeedShipsAndRecords is the smoke-live invariant without the
// subprocess plumbing: a live p2p feed shipped into chainauditd must audit
// byte-identically to the CSV loaded at startup, and replaying the run's
// own recording must land on the same bytes again.
func TestLiveFeedShipsAndRecords(t *testing.T) {
	csvPath, _ := fixtureCSV(t)
	srv, err := serve.New(serve.Config{Chains: []serve.ChainSpec{{Name: "main", Path: csvPath}}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	streamPath := filepath.Join(t.TempDir(), "stream.jsonl")
	var out bytes.Buffer
	err = run(context.Background(), []string{
		"-chain", csvPath, "-url", ts.URL, "-dataset", "live",
		"-record", streamPath, "-batch", "7", "-timeout", "5s",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "observed ") || !strings.Contains(out.String(), "dataset live at height") {
		t.Errorf("driver output = %q", out.String())
	}

	// Replay the recording verbatim into a second streaming set.
	rf, err := os.Open(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	sc := bufio.NewScanner(rf)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	lines := 0
	for sc.Scan() {
		var req serve.IngestRequest
		if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
			t.Fatalf("recorded line %d does not parse: %v", lines+1, err)
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
			t.Fatalf("replay line %d rejected (%d): %s", lines+1, resp.StatusCode, body)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("recording is empty")
	}

	get := func(target string) string {
		t.Helper()
		rr := httptest.NewRecorder()
		req := httptest.NewRequest("POST", target, nil)
		srv.Handler().ServeHTTP(rr, req)
		if rr.Code != 200 {
			t.Fatalf("%s = %d: %s", target, rr.Code, rr.Body.String())
		}
		return rr.Body.String()
	}
	for _, q := range []string{
		"/v1/audits/ppe?format=text&dataset=%s",
		"/v1/audits/lowfee?format=text&dataset=%s",
		"/v1/audits/ppe?format=text&window=16&dataset=%s",
	} {
		want := get(strings.Replace(q, "%s", "main", 1))
		live := get(strings.Replace(q, "%s", "live", 1))
		replayed := get(strings.Replace(q, "%s", "replayed", 1))
		if live != want {
			t.Errorf("live feed diverged from batch on %s:\n--- batch ---\n%s--- live ---\n%s", q, want, live)
		}
		if replayed != live {
			t.Errorf("replay of the recording diverged from the live run on %s", q)
		}
	}
}

// TestInProcessWindowMatchesBatch runs the embedded-auditor shape: the feed
// applies to an in-process retained index and the printed windowed audit
// must be byte-identical to the batch auditor over the chain suffix.
func TestInProcessWindowMatchesBatch(t *testing.T) {
	csvPath, _ := fixtureCSV(t)
	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dataset.ReadChainCSV(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	const retain = 8
	var out bytes.Buffer
	err = run(context.Background(), []string{
		"-chain", csvPath, "-inprocess", "-retain", "8", "-window", "8", "-timeout", "5s",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "8 retained of") {
		t.Errorf("missing retention summary in %q", out.String())
	}

	batch := &core.Auditor{Chain: c.Suffix(retain), Registry: poolid.DefaultRegistry()}
	var want bytes.Buffer
	if err := core.WritePPESection(&want, batch.AuditPPE(core.AuditOptions{})); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), want.String()) {
		t.Errorf("windowed audit diverged from batch suffix:\n--- want ---\n%s--- got ---\n%s", want.String(), out.String())
	}
}

// TestChaosFeedStillLands drops gossip and churns the watcher; the direct
// fallback path must still land every block, and the positional audit is
// unchanged (lost gossip costs first-seen coverage, never blocks).
func TestChaosFeedStillLands(t *testing.T) {
	csvPath, _ := fixtureCSV(t)
	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dataset.ReadChainCSV(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	err = run(context.Background(), []string{
		"-chain", csvPath, "-inprocess", "-timeout", "500ms",
		"-chaos", "seed=3,p2p.drop=0.15,churn=0.05",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}

	batch := &core.Auditor{Chain: c, Registry: poolid.DefaultRegistry()}
	var want bytes.Buffer
	if err := core.WritePPESection(&want, batch.AuditPPE(core.AuditOptions{})); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), want.String()) {
		t.Errorf("chaos feed diverged from batch:\n--- want ---\n%s--- got ---\n%s", want.String(), out.String())
	}
}

// auditSection returns the output from the "in-process index:" line through
// the first blank line after it: the retention summary and the PPE section.
func auditSection(out string) string {
	_, rest, ok := strings.Cut(out, "in-process index:")
	if !ok {
		return ""
	}
	section, _, _ := strings.Cut(rest, "\n\n")
	return section
}

// TestInProcessMultiSourceMatchesSingle is smoke-multi in process: two
// sources sharing one stream.Set — one lagging 30s behind and shipping
// duplicate deliveries — must leave the merged audit byte-identical to a
// single-source run, and the divergence audit must flag exactly the
// laggard.
func TestInProcessMultiSourceMatchesSingle(t *testing.T) {
	csvPath, _ := fixtureCSV(t)
	var single, double bytes.Buffer
	ctx := context.Background()
	if err := run(ctx, []string{"-chain", csvPath, "-inprocess", "-batch", "16", "-timeout", "5s"}, &single); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, []string{
		"-chain", csvPath, "-inprocess", "-batch", "16", "-timeout", "5s",
		"-sources", "2", "-source-lag", "s2=30s", "-source-chaos", "s2=seed=5,p2p.dup=0.2",
	}, &double); err != nil {
		t.Fatal(err)
	}
	want := auditSection(single.String())
	if want == "" {
		t.Fatalf("single-source run printed no in-process audit:\n%s", single.String())
	}
	if got := auditSection(double.String()); got != want {
		t.Errorf("merged audit diverged from the single-source run:\n--- single ---\n%s\n--- two sources ---\n%s", want, got)
	}
	flagged := false
	for _, line := range strings.Split(double.String(), "\n") {
		if strings.HasSuffix(line, "flagged: s2") {
			flagged = true
		}
	}
	if !flagged {
		t.Errorf("divergence did not flag exactly s2:\n%s", double.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	ctx := context.Background()
	if err := run(ctx, nil, &out); err == nil {
		t.Error("missing -chain accepted")
	}
	if err := run(ctx, []string{"-chain", "/nonexistent.csv"}, &out); err == nil {
		t.Error("missing chain file accepted")
	}
	csvPath, _ := fixtureCSV(t)
	if err := run(ctx, []string{"-chain", csvPath, "-chaos", "bogus"}, &out); err == nil {
		t.Error("malformed chaos spec accepted")
	}
}
