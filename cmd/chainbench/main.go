// Command chainbench measures the cost of the batch-vs-incremental index
// refactor and the streaming audit path, emitting a machine-readable report
// (the checked-in BENCH_<n>.json files; `make bench` writes the next free
// one):
//
//	chainbench -seed 11 -hours 4                  # report on stdout
//	chainbench -seed 11 -hours 4 -out report.json
//
// Measurements over one simulated data set C:
//
//   - index.Build/batch         — the one-shot batch index over the full chain
//   - index.AppendBlock/replay  — the same chain grown block by block through
//     the incremental path (throughput plus per-append latency percentiles)
//   - Auditor.Last(32).AuditPPE — one windowed re-audit over the index's
//     last 32 records, the per-request cost of a streaming audit endpoint
//     after an append
//   - observer.Run/IndexSink    — the live-observer pipeline applied in
//     process (chain replayed as an event stream into an incremental index)
//   - observer.Run/HTTPSink     — the same stream shipped over HTTP into an
//     in-memory chainauditd ingest endpoint (live-ingest throughput), with
//     per-batch emit-to-ack ship latency percentiles ("observer lag")
//   - observer.Run/IndexSink/attributed — the in-process pipeline under a
//     source ID, which adds per-source first-seen ledger maintenance
//   - core.DivergenceAudit/sources=2 — the cross-observer divergence audit
//     over a two-source ledger (the per-request cost of /v1/audit/divergence),
//     with the ledger's attribution counters recorded in the report
//
// Throughput numbers (ns/op, allocs) come from testing.Benchmark; append
// latency percentiles come from an instrumented replay. The report is a
// performance artifact: its numbers are machine-dependent by nature, only
// its shape (the chainaudit.bench/v1 schema) is stable.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/core"
	"chainaudit/internal/dataset"
	"chainaudit/internal/index"
	"chainaudit/internal/observer"
	"chainaudit/internal/serve"
	"chainaudit/internal/stream"
)

// BenchSchema identifies the report format.
const BenchSchema = "chainaudit.bench/v1"

// Report is the emitted document.
type Report struct {
	Schema      string       `json:"schema"`
	Go          string       `json:"go"`
	OS          string       `json:"os"`
	Arch        string       `json:"arch"`
	Dataset     Dataset      `json:"dataset"`
	Results     []Result     `json:"results"`
	Attribution *Attribution `json:"attribution,omitempty"`
}

// Attribution records the source-attribution counters from the two-source
// divergence measurement: what the per-source ledger held and what the
// audit flagged. Unlike the timing numbers these are deterministic for a
// given seed — the planted 3s laggard must always be the one flagged.
type Attribution struct {
	Sources   []string `json:"sources"`
	LedgerTxs int      `json:"ledger_txs"`
	SharedTxs int      `json:"shared_txs"`
	Flagged   []string `json:"flagged"`
}

// Dataset records what was measured over.
type Dataset struct {
	Builder string  `json:"builder"`
	Seed    uint64  `json:"seed"`
	Hours   float64 `json:"hours"`
	Blocks  int     `json:"blocks"`
	Txs     int64   `json:"txs"`
}

// Result is one measurement. Latency percentiles are present only for the
// per-append measurement; BlocksPerSec only where an op covers the chain.
type Result struct {
	Name         string  `json:"name"`
	Iters        int     `json:"iters"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	BlocksPerSec float64 `json:"blocks_per_sec,omitempty"`
	P50Ns        int64   `json:"p50_ns,omitempty"`
	P95Ns        int64   `json:"p95_ns,omitempty"`
	P99Ns        int64   `json:"p99_ns,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "chainbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("chainbench", flag.ContinueOnError)
	seed := fs.Uint64("seed", 11, "simulation seed")
	hours := fs.Float64("hours", 4, "simulated span in hours")
	window := fs.Int("window", 32, "sliding-window size for the re-audit measurement")
	outPath := fs.String("out", "-", "report path (- for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := dataset.Cached(dataset.BuilderC, dataset.Options{Seed: *seed, Duration: time.Duration(*hours * float64(time.Hour))})
	if err != nil {
		return err
	}
	c := ds.Result.Chain
	blocks := c.Blocks()
	rep := Report{
		Schema: BenchSchema,
		Go:     runtime.Version(),
		OS:     runtime.GOOS,
		Arch:   runtime.GOARCH,
		Dataset: Dataset{
			Builder: "C", Seed: *seed, Hours: *hours,
			Blocks: c.Len(), Txs: c.TxCount(),
		},
	}

	// Batch: the one-shot build over the full chain.
	batch := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ix := index.Build(c, ds.Registry); ix.Len() != c.Len() {
				b.Fatal("short index")
			}
		}
	})
	rep.Results = append(rep.Results, result("index.Build/batch", batch, c.Len()))

	// Incremental: the same chain replayed through AppendBlock.
	incr := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix := index.NewIncremental(ds.Registry)
			for _, blk := range blocks {
				if _, err := ix.AppendBlock(blk); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	incrRes := result("index.AppendBlock/replay", incr, c.Len())

	// Per-append latency percentiles from one instrumented replay.
	lat := make([]time.Duration, 0, len(blocks))
	ix := index.NewIncremental(ds.Registry)
	for _, blk := range blocks {
		t0 := time.Now()
		if _, err := ix.AppendBlock(blk); err != nil {
			return err
		}
		lat = append(lat, time.Since(t0))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	incrRes.P50Ns = percentile(lat, 50)
	incrRes.P95Ns = percentile(lat, 95)
	incrRes.P99Ns = percentile(lat, 99)
	rep.Results = append(rep.Results, incrRes)

	// One windowed re-audit over the incremental index's last records — the
	// post-append cost of a streaming endpoint.
	last := core.NewIndexedAuditor(ix).Last(*window)
	audit := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if rep := last.AuditPPE(core.AuditOptions{}); rep.Overall.N == 0 {
				b.Fatal("empty")
			}
		}
	})
	rep.Results = append(rep.Results, result(fmt.Sprintf("core.Auditor.Last(%d).AuditPPE", *window), audit, 0))

	// The live-observer pipeline applied in process: the chain replayed as
	// an event stream (block + seen-delta snapshot each) into a fresh
	// incremental index per iteration.
	ctx := context.Background()
	inproc := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink := &observer.IndexSink{Set: stream.New("bench", index.NewIncremental(ds.Registry), time.Now)}
			st, err := observer.Run(ctx, observer.NewChainSource(c), sink, observer.Config{BatchBlocks: 16})
			if err != nil {
				b.Fatal(err)
			}
			if st.Blocks != c.Len() {
				b.Fatalf("short run: %d blocks", st.Blocks)
			}
		}
	})
	rep.Results = append(rep.Results, result("observer.Run/IndexSink", inproc, c.Len()))

	// The same pipeline under a source ID: every snapshot's seen events also
	// land in the per-source first-seen ledger, the cost the v2 ingest path
	// adds over v1.
	attrib := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink := &observer.IndexSink{Set: stream.New("bench", index.NewIncremental(ds.Registry), time.Now), Source: "s1"}
			st, err := observer.Run(ctx, observer.NewChainSource(c), sink, observer.Config{BatchBlocks: 16})
			if err != nil {
				b.Fatal(err)
			}
			if st.Blocks != c.Len() {
				b.Fatalf("short run: %d blocks", st.Blocks)
			}
		}
	})
	rep.Results = append(rep.Results, result("observer.Run/IndexSink/attributed", attrib, c.Len()))

	// The divergence audit over a two-source ledger: s1 fed by the attributed
	// pipeline, s2 replayed with a planted 3s systematic delay. The timing is
	// the per-request cost of /v1/audit/divergence; the attribution counters
	// (and the flagged laggard) are recorded in the report.
	ixAttr := index.NewIncremental(ds.Registry)
	attrSink := &observer.IndexSink{Set: stream.New("bench", ixAttr, time.Now), Source: "s1"}
	if _, err := observer.Run(ctx, observer.NewChainSource(c), attrSink, observer.Config{BatchBlocks: 16}); err != nil {
		return err
	}
	for _, blk := range blocks {
		seen := make(map[chain.TxID]time.Time, len(blk.Body()))
		for _, tx := range blk.Body() {
			seen[tx.ID] = tx.Time.Add(3 * time.Second)
		}
		ixAttr.ObserveFirstSeenFrom("s2", seen)
	}
	ledger := ixAttr.SourceSeenTimes()
	divBench := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if rep := core.DivergenceAudit(ledger, core.DivergenceOptions{}); len(rep.Sources) != 2 {
				b.Fatalf("divergence saw %d sources", len(rep.Sources))
			}
		}
	})
	rep.Results = append(rep.Results, result("core.DivergenceAudit/sources=2", divBench, 0))
	div := core.DivergenceAudit(ledger, core.DivergenceOptions{})
	rep.Attribution = &Attribution{
		Sources:   ixAttr.Sources(),
		LedgerTxs: len(ledger),
		SharedTxs: div.SharedTxs,
		Flagged:   div.FlaggedSources(),
	}
	if len(rep.Attribution.Flagged) != 1 || rep.Attribution.Flagged[0] != "s2" {
		return fmt.Errorf("divergence flagged %v, want exactly [s2]", rep.Attribution.Flagged)
	}

	// The same stream shipped over HTTP into an in-memory ingest endpoint —
	// live-ingest throughput including JSON framing and the service's own
	// append path. Each iteration targets a fresh streaming data set. The
	// service needs at least one startup set, so the measured chain doubles
	// as the CSV-loaded reference.
	csvDir, err := os.MkdirTemp("", "chainbench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(csvDir)
	csvPath := csvDir + "/chain.csv"
	cf, err := os.Create(csvPath)
	if err != nil {
		return err
	}
	if err := dataset.WriteChainCSV(cf, c); err != nil {
		cf.Close()
		return err
	}
	if err := cf.Close(); err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{Chains: []serve.ChainSpec{{Name: "main", Path: csvPath}}})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	iter := 0
	var shipped *observer.Stats
	httpBench := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			iter++
			sink := &observer.HTTPSink{URL: ts.URL, Dataset: fmt.Sprintf("bench-%d", iter)}
			st, err := observer.Run(ctx, observer.NewChainSource(c), sink, observer.Config{BatchBlocks: 16})
			if err != nil {
				b.Fatal(err)
			}
			if st.Blocks != c.Len() {
				b.Fatalf("short run: %d blocks", st.Blocks)
			}
			shipped = st
		}
	})
	httpRes := result("observer.Run/HTTPSink", httpBench, c.Len())
	// Observer lag: per-batch emit-to-ack ship durations from the last run.
	if shipped != nil && len(shipped.Ship) > 0 {
		ship := append([]time.Duration(nil), shipped.Ship...)
		sort.Slice(ship, func(i, j int) bool { return ship[i] < ship[j] })
		httpRes.P50Ns = percentile(ship, 50)
		httpRes.P95Ns = percentile(ship, 95)
		httpRes.P99Ns = percentile(ship, 99)
	}
	rep.Results = append(rep.Results, httpRes)

	var dst io.Writer = out
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	enc := json.NewEncoder(dst)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		return err
	}
	if *outPath != "-" {
		for _, r := range rep.Results {
			fmt.Fprintf(out, "%-44s %12.0f ns/op %10d allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
		}
		fmt.Fprintf(out, "report -> %s\n", *outPath)
	}
	return nil
}

// result converts a testing.BenchmarkResult; blocks > 0 adds chain
// throughput (an op covers the whole chain).
func result(name string, r testing.BenchmarkResult, blocks int) Result {
	res := Result{
		Name:        name,
		Iters:       r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if blocks > 0 && res.NsPerOp > 0 {
		res.BlocksPerSec = float64(blocks) / (res.NsPerOp / float64(time.Second/time.Nanosecond))
	}
	return res
}

// percentile reads the p-th percentile from an ascending sample set
// (nearest-rank on the closed index range).
func percentile(sorted []time.Duration, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (p * (len(sorted) - 1)) / 100
	return sorted[idx].Nanoseconds()
}
