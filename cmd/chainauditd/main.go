// Command chainauditd serves the paper's audit pipeline as a long-running
// HTTP/JSON service (see internal/serve and DESIGN.md §8):
//
//	chainauditd [-addr host:port] [-sim] [-seed N] [-scale X] [-chaos spec]
//	            [-chain name=path ...] [-watchdog d]
//	            [-stream-retain N] [-stream-dir d] [-stream-fsync policy]
//	            [-stream-checkpoint N] [-max-ingest-bytes N] [-ready-file f]
//
// Data sets load once at startup: -chain name=path loads a chain CSV (as
// produced by cmd/gendata) under the given name, repeatably; -sim builds
// the simulated suite data sets A, B, and C and enables the experiment
// endpoints. With no -chain flags, -sim is implied — unless -stream-dir
// alone is given, in which case the daemon boots empty and recovers
// whatever streaming sets the directory holds. Additional streaming
// data sets are created at runtime by POST /v1/ingest (cmd/streamfeed
// replays recorded streams).
//
// -stream-dir makes streaming sets crash-safe (DESIGN.md §13): every
// accepted ingest batch is appended to a per-set write-ahead log before it
// is acknowledged, and on restart the daemon replays checkpoint + WAL so a
// kill -9 mid-stream loses nothing that was acked. -stream-fsync picks the
// durability/throughput trade (always | batch | off, default batch);
// -stream-checkpoint compacts each WAL after that many appended lines.
// -max-ingest-bytes caps a single ingest body (413 above it). Endpoints:
//
//	GET  /v1/healthz              liveness + data sets (index length, ingest watermark)
//	GET  /v1/metrics              obs registry snapshot (incl. serve.ingest.*)
//	GET  /v1/experiments          the experiment registry (ids, titles, params)
//	POST /v1/experiments/{name}   run one experiment (?format=json|text|csv)
//	POST /v1/audits/{kind}        ppe | selfinterest | lowfee | scam | darkfee
//	                              | divergence
//	                              (?dataset= ?minshare= ?sppe= ?windows=
//	                               ?address= ?pool= ?timeout_ms= ?format=
//	                               ?window=N — ppe/lowfee/darkfee over the
//	                               last N retained blocks, 0 = all retained)
//	POST /v1/audit/divergence     cross-observer first-seen divergence over
//	                              the per-source ledger (?dataset=
//	                               ?threshold_ms= ?minshared=; DESIGN.md §14)
//	POST /v1/ingest               append block/mempool frames to a streaming
//	                              data set (JSON body: dataset, blocks, mempool)
//	POST /v2/ingest               same schema plus source attribution: a
//	                              request-level "source" and/or per-frame
//	                              overrides feed the per-source first-seen
//	                              ledger; /v1 bodies stay valid and anonymous
//
// Errors from every endpoint share one JSON envelope
// (chainaudit.error/v1: api, code, error, plus context fields).
//
// Responses are value-identical to the batch CLIs (cmd/reproduce,
// cmd/chainaudit); text-format bodies are byte-identical to the matching
// CLI sections, and a replayed stream audits byte-identically to the batch
// path over the same window. -watchdog bounds each request's computation
// (504 on timeout); -ready-file writes the bound address once listening,
// for scripts that start the daemon on port 0. SIGINT/SIGTERM shut down
// gracefully.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"chainaudit/internal/serve"
)

// chainList collects repeated -chain name=path flags.
type chainList []serve.ChainSpec

func (c *chainList) String() string {
	parts := make([]string, len(*c))
	for i, spec := range *c {
		parts[i] = spec.Name + "=" + spec.Path
	}
	return strings.Join(parts, ",")
}

func (c *chainList) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*c = append(*c, serve.ChainSpec{Name: name, Path: path})
	return nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "chainauditd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("chainauditd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8347", "listen address (use :0 for an ephemeral port with -ready-file)")
	seed := fs.Uint64("seed", 42, "simulation seed for -sim data sets")
	scale := fs.Float64("scale", 1, "simulated data set duration scale")
	sim := fs.Bool("sim", false, "build the simulated suite data sets (A, B, C); implied when no -chain is given")
	chaos := fs.String("chaos", "", "build -sim data sets under a fault-injection spec (see internal/faults)")
	watchdog := fs.Duration("watchdog", 2*time.Minute, "per-request watchdog timeout (0 = none)")
	streamRetain := fs.Int("stream-retain", 0, "retention horizon for streaming data sets in blocks (0 = unbounded)")
	streamDir := fs.String("stream-dir", "", "write-ahead log directory for streaming data sets (crash-safe ingest + recovery on boot)")
	streamFsync := fs.String("stream-fsync", "", "WAL fsync policy: always | batch | off (default batch)")
	streamCkpt := fs.Int("stream-checkpoint", 0, "compact each WAL after this many appended lines (0 = default)")
	maxIngest := fs.Int64("max-ingest-bytes", 0, "cap on a single ingest request body in bytes (0 = default)")
	readyFile := fs.String("ready-file", "", "write the bound address to this file once listening")
	var chains chainList
	fs.Var(&chains, "chain", "chain CSV to serve as name=path (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *streamDir == "" && (*streamFsync != "" || *streamCkpt != 0) {
		return fmt.Errorf("-stream-fsync and -stream-checkpoint require -stream-dir")
	}
	if len(chains) == 0 && *streamDir == "" {
		*sim = true
	}

	cfg := serve.Config{
		Seed:            *seed,
		Scale:           *scale,
		Chaos:           *chaos,
		Chains:          chains,
		Sim:             *sim,
		Watchdog:        *watchdog,
		StreamRetain:    *streamRetain,
		StreamDir:       *streamDir,
		StreamFsync:     *streamFsync,
		CheckpointEvery: *streamCkpt,
		MaxIngestBytes:  *maxIngest,
	}
	fmt.Fprintf(logw, "chainauditd: loading data sets (sim=%t chains=%d)...\n", *sim, len(chains))
	start := time.Now()
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "chainauditd: %d data sets ready in %v\n",
		len(srv.DatasetNames()), time.Since(start).Round(time.Millisecond))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *readyFile != "" {
		if err := os.WriteFile(*readyFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(logw, "chainauditd: listening on %s\n", ln.Addr())

	select {
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		fmt.Fprintln(logw, "chainauditd: shutting down")
		serr := hs.Shutdown(sctx)
		// Graceful exit checkpoints and closes every durable streaming set so
		// the next boot replays a compact log instead of the full WAL.
		if cerr := srv.Close(); serr == nil {
			serr = cerr
		}
		return serr
	case err := <-errc:
		srv.Close()
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
