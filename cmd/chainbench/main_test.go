package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestReportShape runs a small measurement and validates the emitted
// document against the chainaudit.bench/v1 shape `make bench` checks in.
func TestReportShape(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var out bytes.Buffer
	if err := run([]string{"-hours", "1", "-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Schema != BenchSchema || rep.Go == "" {
		t.Errorf("header = %+v", rep)
	}
	if rep.Dataset.Blocks == 0 || rep.Dataset.Txs == 0 {
		t.Errorf("dataset = %+v", rep.Dataset)
	}
	if len(rep.Results) != 7 {
		t.Fatalf("results = %d, want 7", len(rep.Results))
	}
	names := map[string]bool{}
	for _, r := range rep.Results {
		names[r.Name] = true
		if r.Iters == 0 || r.NsPerOp <= 0 {
			t.Errorf("%s: empty measurement %+v", r.Name, r)
		}
	}
	for _, want := range []string{
		"index.Build/batch", "index.AppendBlock/replay", "core.Auditor.Last(32).AuditPPE",
		"observer.Run/IndexSink", "observer.Run/HTTPSink",
		"observer.Run/IndexSink/attributed", "core.DivergenceAudit/sources=2",
	} {
		if !names[want] {
			t.Errorf("missing result %q (have %v)", want, names)
		}
	}
	// The attribution counters are deterministic in the seed: two sources,
	// every tx shared, and exactly the planted laggard s2 flagged.
	if rep.Attribution == nil {
		t.Fatal("report has no attribution block")
	}
	a := rep.Attribution
	if len(a.Sources) != 2 || a.Sources[0] != "s1" || a.Sources[1] != "s2" {
		t.Errorf("attribution sources = %v, want [s1 s2]", a.Sources)
	}
	if a.LedgerTxs == 0 || a.SharedTxs != a.LedgerTxs {
		t.Errorf("attribution ledger = %d shared = %d", a.LedgerTxs, a.SharedTxs)
	}
	if len(a.Flagged) != 1 || a.Flagged[0] != "s2" {
		t.Errorf("attribution flagged = %v, want [s2]", a.Flagged)
	}
	for _, r := range rep.Results {
		switch r.Name {
		case "index.AppendBlock/replay":
			if r.P50Ns == 0 || r.P99Ns < r.P50Ns {
				t.Errorf("append percentiles = p50 %d p95 %d p99 %d", r.P50Ns, r.P95Ns, r.P99Ns)
			}
			if r.BlocksPerSec <= 0 {
				t.Errorf("append throughput = %v", r.BlocksPerSec)
			}
		case "observer.Run/HTTPSink":
			// The observer-lag percentiles ride on the HTTP shipping result.
			if r.P50Ns == 0 || r.P99Ns < r.P50Ns {
				t.Errorf("ship percentiles = p50 %d p95 %d p99 %d", r.P50Ns, r.P95Ns, r.P99Ns)
			}
			if r.BlocksPerSec <= 0 {
				t.Errorf("live-ingest throughput = %v", r.BlocksPerSec)
			}
		}
	}
}
