package stream_test

// The cross-path property: one recorded observation stream, cut into random
// batches, must land on the same audit state whichever path applies it —
// an in-process observer.IndexSink over a stream.Set, chainauditd's
// /v1|/v2 ingest, and a durable chainauditd recovered from its WAL and
// checkpoints by a fresh process. All three apply through Set.Apply; the
// test holds them to equal fingerprints, heights, snapshot counts, and
// audit bytes.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/core"
	"chainaudit/internal/dataset"
	"chainaudit/internal/observer"
	"chainaudit/internal/serve"
	"chainaudit/internal/stats"
	"chainaudit/internal/stream"
)

// outcome is what the property compares across paths.
type outcome struct {
	fingerprint string
	height      int64
	snapshots   int64
	audits      map[string]string
}

// feed is one observation source's batches; an empty source is v1.
type feed struct {
	source  string
	batches []observer.Batch
}

// auditQueries are the audits compared, keyed by their HTTP query.
var auditQueries = []string{"ppe", "lowfee", "darkfee&pool=F2Pool", "divergence"}

// recordedChain writes the cached data set C chain as a CSV and reads it
// back: the chain a recorded stream replays, with the block hashes frames
// rebuild.
func recordedChain(t *testing.T) (*chain.Chain, string) {
	t.Helper()
	ds, err := dataset.Cached(dataset.BuilderC, dataset.Options{Seed: 11, Duration: 4 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dataset.WriteChainCSV(&buf, ds.Result.Chain); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "chain.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := dataset.ReadChainCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return c, path
}

// events drains a source.
func events(t *testing.T, src observer.Source) []observer.Event {
	t.Helper()
	var out []observer.Event
	for {
		ev, err := src.Next(context.Background())
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ev)
	}
}

// split cuts events into consecutive batches of 1–6 events.
func split(rng *stats.RNG, evs []observer.Event) []observer.Batch {
	var out []observer.Batch
	for i := 0; i < len(evs); {
		n := 1 + rng.Intn(6)
		var b observer.Batch
		for ; n > 0 && i < len(evs); n, i = n-1, i+1 {
			b.Blocks = append(b.Blocks, evs[i].Block)
			b.Snapshots = append(b.Snapshots, evs[i].Snapshot)
		}
		out = append(out, b)
	}
	return out
}

// each visits the feeds' batches round-robin: every source's next batch,
// in source order.
func each(feeds []feed, f func(source string, b *observer.Batch)) {
	for i := 0; ; i++ {
		more := false
		for _, fd := range feeds {
			if i < len(fd.batches) {
				f(fd.source, &fd.batches[i])
				more = true
			}
		}
		if !more {
			return
		}
	}
}

func inProcess(t *testing.T, feeds []feed) outcome {
	t.Helper()
	set := stream.New("x", stream.NewIndex(0), time.Now)
	each(feeds, func(source string, b *observer.Batch) {
		sink := &observer.IndexSink{Set: set, Source: source}
		if err := sink.Apply(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	})
	height, _, _ := set.Watermark()
	aud := core.NewIndexedAuditor(set.Index())
	render := func(f func(w io.Writer) error) string {
		var buf bytes.Buffer
		if err := f(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	return outcome{
		fingerprint: set.State().Fingerprint,
		height:      height,
		snapshots:   set.State().Snapshots,
		audits: map[string]string{
			"ppe": render(func(w io.Writer) error { return core.WritePPESection(w, aud.AuditPPE(core.AuditOptions{})) }),
			"lowfee": render(func(w io.Writer) error {
				return core.WriteLowFeeSection(w, aud.AuditLowFee(core.AuditOptions{}))
			}),
			"darkfee&pool=F2Pool": render(func(w io.Writer) error {
				return core.WriteDarkFeeSection(w, "F2Pool", core.DefaultSPPE, aud.AuditDarkFee("F2Pool", core.AuditOptions{}))
			}),
			"divergence": render(func(w io.Writer) error {
				return core.WriteDivergenceSection(w, aud.AuditDivergence(core.DivergenceOptions{}))
			}),
		},
	}
}

func do(t *testing.T, h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rr
}

// ingest ships the feeds to a server the way HTTPSink does: a delivery
// rejected because the set already holds its leading blocks is trimmed to
// the uncovered blocks and re-sent, snapshots included.
func ingest(t *testing.T, h http.Handler, feeds []feed) {
	t.Helper()
	each(feeds, func(source string, b *observer.Batch) {
		req := b.Request("x")
		target := "/v1/ingest"
		if source != "" {
			req.Source, target = source, "/v2/ingest"
		}
		for {
			raw, err := json.Marshal(&req)
			if err != nil {
				t.Fatal(err)
			}
			rr := do(t, h, http.MethodPost, target, raw)
			if rr.Code == http.StatusOK {
				return
			}
			var resp serve.IngestResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil || rr.Code != http.StatusConflict ||
				len(req.Blocks) == 0 || resp.Height == nil || *resp.Height < req.Blocks[0].Height {
				t.Fatalf("ingest = %d: %s", rr.Code, rr.Body.String())
			}
			kept := req.Blocks[:0]
			for _, bf := range req.Blocks {
				if bf.Height > *resp.Height {
					kept = append(kept, bf)
				}
			}
			req.Blocks = kept
		}
	})
}

func served(t *testing.T, srv *serve.Server) outcome {
	t.Helper()
	h := srv.Handler()
	var health struct {
		Datasets []struct {
			Name        string `json:"name"`
			Fingerprint string `json:"fingerprint"`
			Snapshots   int64  `json:"snapshots"`
			Watermark   *struct {
				Height int64 `json:"height"`
			} `json:"watermark"`
		} `json:"datasets"`
	}
	if err := json.Unmarshal(do(t, h, http.MethodGet, "/v1/healthz", nil).Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	var out outcome
	for _, d := range health.Datasets {
		if d.Name == "x" && d.Watermark != nil {
			out = outcome{fingerprint: d.Fingerprint, height: d.Watermark.Height, snapshots: d.Snapshots}
		}
	}
	out.audits = make(map[string]string)
	for _, q := range auditQueries {
		kind, params, _ := strings.Cut(q, "&")
		target := "/v1/audits/" + kind + "?format=text&dataset=x"
		if params != "" {
			target += "&" + params
		}
		rr := do(t, h, http.MethodPost, target, nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", target, rr.Code, rr.Body.String())
		}
		out.audits[q] = rr.Body.String()
	}
	return out
}

func compare(t *testing.T, path string, got, want outcome) {
	t.Helper()
	if got.fingerprint != want.fingerprint || got.height != want.height || got.snapshots != want.snapshots {
		t.Errorf("%s: fingerprint %s height %d snapshots %d, in process %s %d %d",
			path, got.fingerprint, got.height, got.snapshots, want.fingerprint, want.height, want.snapshots)
	}
	for _, q := range auditQueries {
		if got.audits[q] != want.audits[q] {
			t.Errorf("%s: %s diverged from in process:\n--- in process ---\n%s--- %s ---\n%s", path, q, want.audits[q], path, got.audits[q])
		}
	}
}

func TestApplyPathsAgree(t *testing.T) {
	c, csv := recordedChain(t)
	clean := events(t, observer.NewChainSource(c))
	for i := 0; i < len(clean); i += 3 {
		if seen := clean[i].Snapshot.Seen; len(seen) > 0 {
			seen[0].At = time.Time{} // no time of its own: the snapshot time stands in
		}
	}
	lagged := events(t, &observer.LagSource{Src: observer.NewChainSource(c), Lag: 30 * time.Second})
	for _, seed := range []uint64{1, 2, 3} {
		rng := stats.NewRNG(seed)
		for _, tc := range []struct {
			name  string
			feeds []feed
		}{
			{"v1", []feed{{"", split(rng, clean)}}},
			{"v2", []feed{{"s1", split(rng, clean)}, {"s2", split(rng, lagged)}}},
		} {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, tc.name), func(t *testing.T) {
				want := inProcess(t, tc.feeds)
				if want.height != c.Blocks()[c.Len()-1].Height {
					t.Fatalf("in-process height %d, want the chain tip %d", want.height, c.Blocks()[c.Len()-1].Height)
				}

				mem, err := serve.New(serve.Config{Chains: []serve.ChainSpec{{Name: "ref", Path: csv}}})
				if err != nil {
					t.Fatal(err)
				}
				ingest(t, mem.Handler(), tc.feeds)
				compare(t, "ingest", served(t, mem), want)

				dir := t.TempDir()
				cfg := serve.Config{StreamDir: dir, StreamFsync: "off", CheckpointEvery: 2 + rng.Intn(4)}
				durable, err := serve.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ingest(t, durable.Handler(), tc.feeds)
				recovered, err := serve.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				compare(t, "recovered", served(t, recovered), want)
				for _, srv := range []*serve.Server{recovered, durable} {
					if err := srv.Close(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}
