package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/core"
	"chainaudit/internal/dataset"
	"chainaudit/internal/index"
	"chainaudit/internal/obs"
	"chainaudit/internal/observer"
	"chainaudit/internal/serve"
)

// probeSets is how many copies of the feed chain the in-process serve probe
// ships per configuration.
const probeSets = 4

// reproLayers reads the per-layer metrics of a reproduction from its run
// manifest and CPU profile.
func (r *run) reproLayers(m *manifest, profile string, wall float64) error {
	t := m.Metrics.Timers
	r.set("sim.build_A_s", "s", t["dataset.build.A"].TotalMS/1000)
	r.set("sim.build_B_s", "s", t["dataset.build.B"].TotalMS/1000)
	r.set("sim.build_C_s", "s", t["dataset.build.C"].TotalMS/1000)
	r.set("sim.events_per_s", "1/s", m.Metrics.Counters["sim.events"]/(t["sim.run"].TotalMS/1000))
	r.set("sim.repro_share_build_C", "ratio", t["dataset.build.C"].TotalMS/1000/wall)
	if off := m.Metrics.Counters["pipeline.offered_ns"]; off > 0 {
		r.set("pipeline.occupancy", "ratio", m.Metrics.Counters["pipeline.busy_ns"]/off)
	}
	byID := map[string]float64{}
	for _, e := range m.Experiments {
		byID[e.ID] = e.WallMS
	}
	for _, id := range experimentIDs {
		r.set("experiments."+id+"_ms", "ms", byID[id])
	}
	share, err := profileShare(filepath.Join(r.bin, "reproduce"), profile, "mempool.(*Pool).TotalVSize")
	if err != nil {
		return err
	}
	r.set("sim.vsize_scan_share", "ratio", share)
	r.fig("repro_share_vsize_scan", share)
	return nil
}

// profileShare is the cumulative share of CPU-profile samples in fn, read
// with go tool pprof; 0 when fn does not appear.
func profileShare(binary, profile, fn string) (float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-cum", "-nodefraction=0", binary, profile).Output()
	if err != nil {
		return 0, fmt.Errorf("go tool pprof: %w", err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) >= 6 && strings.HasSuffix(f[5], fn) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(f[4], "%"), 64)
			if err != nil {
				return 0, err
			}
			return v / 100, nil
		}
	}
	return 0, nil
}

// layersScale is the scale of the extra reproduction a traced live run makes
// for the simulator and experiment metrics: half of paper-repro's, to keep
// traced runs short. Those metrics compare between runs of one workload.
const layersScale = 0.1

// layers measures every per-layer metric: a traced reproduction (unless the
// workload was one) and in-process calls into each layer over the feed
// chain, each wrapped in a span.
func (r *run) layers() error {
	if r.workload != "paper-repro" {
		manPath, prof := filepath.Join(r.dir, "layers-manifest.json"), filepath.Join(r.dir, "layers-cpu.pprof")
		scale := strconv.FormatFloat(layersScale, 'g', -1, 64)
		exp := "all"
		if r.short {
			exp = "table1"
		}
		cmd := exec.Command(filepath.Join(r.bin, "reproduce"), "-seed", strconv.Itoa(reproSeed), "-scale", scale,
			"-exp", exp, "-metrics", manPath, "-cpuprofile", prof)
		_, end := r.tr.begin("reproduce", 0, 0)
		t0 := time.Now()
		out, err := cmd.CombinedOutput()
		wall := time.Since(t0).Seconds()
		end()
		if err != nil {
			return fmt.Errorf("reproduce: %v: %s", err, tailBytes(out))
		}
		m, err := readManifest(manPath)
		if err != nil {
			return err
		}
		if err := r.reproLayers(m, prof, wall); err != nil {
			return err
		}
	}
	return r.probe()
}

// timed runs f reps times inside spans named name and returns the median.
func (r *run) timed(name string, reps int, f func() error) (time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < reps; i++ {
		_, end := r.tr.begin(name, int64(i+1), 0)
		t0 := time.Now()
		err := f()
		ds = append(ds, time.Since(t0))
		end()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return time.Duration(medianDur(ds) * float64(time.Millisecond)), nil
}

// probe calls each layer's public functions in process over the feed chain.
func (r *run) probe() error {
	// The live workloads built the feed chain in every set-up; paper-repro
	// builds it here.
	ds := r.feedDS
	if ds == nil {
		var err error
		if ds, _, err = r.buildFeed(0, 0); err != nil {
			return err
		}
	}
	r.set("sim.feed_build_C_s", "s", median(r.feedBuilds))
	c, reg := ds.Result.Chain, ds.Registry

	// dataset: chain CSV round trip through a file.
	csv := filepath.Join(r.dir, "probe.csv")
	d, err := r.timed("dataset.csv_write", 3, func() error {
		f, err := os.Create(csv)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		if err := dataset.WriteChainCSV(w, c); err != nil {
			f.Close()
			return err
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	if err != nil {
		return err
	}
	r.set("dataset.csv_write_ms", "ms", ms(d))
	d, err = r.timed("dataset.csv_read", 3, func() error {
		f, err := os.Open(csv)
		if err != nil {
			return err
		}
		defer f.Close()
		back, err := dataset.ReadChainCSV(bufio.NewReader(f))
		if err == nil && back.Len() != c.Len() {
			err = fmt.Errorf("read %d blocks, wrote %d", back.Len(), c.Len())
		}
		return err
	})
	if err != nil {
		return err
	}
	r.set("dataset.csv_read_ms", "ms", ms(d))

	// index and core: the batch build, then the streaming path block by
	// block with two attributed sources.
	var ix *index.BlockIndex
	d, err = r.timed("index.build", 5, func() error {
		ix = index.Build(c, reg)
		if ix.Len() != c.Len() {
			return fmt.Errorf("index of %d blocks over %d", ix.Len(), c.Len())
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("index.build_ms", "ms", ms(d))
	f, err := r.newFeed(ds, csv)
	if err != nil {
		return err
	}
	inc := index.NewIncremental(reg)
	win := core.NewWindowAuditor(0)
	var appends, observes, seens []time.Duration
	for i, b := range f.s1 {
		req := int64(i + 1)
		for _, blk := range b.Blocks {
			_, end := r.tr.begin("index.append", req, 0)
			t0 := time.Now()
			rec, err := inc.AppendBlock(blk)
			appends = append(appends, time.Since(t0))
			end()
			if err != nil {
				return err
			}
			_, end = r.tr.begin("core.observe_block", req, 0)
			t0 = time.Now()
			err = win.ObserveBlock(rec)
			observes = append(observes, time.Since(t0))
			end()
			if err != nil {
				return err
			}
		}
		for _, leg := range []struct {
			b      *observer.Batch
			source string
		}{{b, "s1"}, {f.s2[i], "s2"}} {
			for _, sn := range leg.b.Snapshots {
				seen := make(map[chain.TxID]time.Time, len(sn.Seen))
				for _, ev := range sn.Seen {
					seen[ev.TxID] = ev.At
				}
				_, end := r.tr.begin("index.first_seen", req, 0)
				t0 := time.Now()
				inc.ObserveFirstSeenFrom(leg.source, seen)
				seens = append(seens, time.Since(t0))
				end()
			}
		}
	}
	r.set("index.append_ms", "ms", medianDur(appends))
	r.set("core.observe_block_us", "us", medianDur(observes)*1000)
	r.set("index.first_seen_ms", "ms", medianDur(seens))

	aud := core.NewIndexedAuditor(ix)
	opts := core.AuditOptions{}
	var ppe core.PPEReport
	var lows []core.LowFeeConfirmation
	var cands []core.Candidate
	var self core.SelfInterestReport
	for _, a := range []struct {
		name string
		f    func() error
	}{
		{"core.audit_ppe", func() error { ppe = aud.AuditPPE(opts); return nil }},
		{"core.audit_lowfee", func() error { lows = aud.AuditLowFee(opts); return nil }},
		{"core.audit_darkfee", func() error { cands = aud.AuditDarkFee(f.pool, opts); return nil }},
		{"core.audit_selfinterest", func() (err error) { self, err = aud.AuditSelfInterest(opts); return err }},
		{"core.window_ppe", func() error { win.AuditPPE(f.window, opts); return nil }},
		{"core.window_lowfee", func() error { win.AuditLowFee(f.window); return nil }},
		{"core.window_darkfee", func() error { win.AuditDarkFee(f.pool, f.window, opts); return nil }},
	} {
		d, err := r.timed(a.name, 5, a.f)
		if err != nil {
			return err
		}
		r.set(a.name+"_ms", "ms", ms(d))
	}
	ledger := inc.SourceSeenTimes()
	var div *core.DivergenceReport
	d, err = r.timed("core.divergence", 5, func() error {
		div = core.DivergenceAudit(ledger, core.DivergenceOptions{})
		return nil
	})
	if err != nil {
		return err
	}
	r.set("core.divergence_ms", "ms", ms(d))
	r.check(strings.Join(div.FlaggedSources(), ",") == "s2", "probe: divergence flagged %v, want [s2]", div.FlaggedSources())
	d, err = r.timed("report.render", 5, func() error {
		var buf bytes.Buffer
		if err := core.WritePPESection(&buf, ppe); err != nil {
			return err
		}
		if err := core.WriteLowFeeSection(&buf, lows); err != nil {
			return err
		}
		if err := core.WriteDarkFeeSection(&buf, f.pool, core.DefaultSPPE, cands); err != nil {
			return err
		}
		return core.WriteSelfInterestSection(&buf, self)
	})
	if err != nil {
		return err
	}
	r.set("report.render_ms", "ms", ms(d))

	return r.probeServe(f, csv)
}

// probeServe ships the feed through Server.Handler() in process, without
// and with a stream directory, then over loopback HTTP through the
// observer's HTTPSink, then beside a concurrent audit reader.
func (r *run) probeServe(f *feed, csv string) error {
	blocks := f.chain.Len()
	var frames, decodes []time.Duration
	var frameBytes int
	for _, b := range f.s1 {
		_, end := r.tr.begin("observer.frame", 0, 0)
		t0 := time.Now()
		body, err := frame(b, "probe", "s1")
		frames = append(frames, time.Since(t0))
		end()
		if err != nil {
			return err
		}
		frameBytes += len(body)
		_, end = r.tr.begin("serve.decode", 0, 0)
		t0 = time.Now()
		var req serve.IngestRequest
		err = json.Unmarshal(body, &req)
		decodes = append(decodes, time.Since(t0))
		end()
		if err != nil {
			return err
		}
	}
	r.set("observer.frame_ms", "ms", medianDur(frames))
	r.set("serve.decode_ms", "ms", medianDur(decodes))
	r.set("observer.bytes_per_block", "B", float64(frameBytes)/float64(blocks))

	// ingest through the handler, in memory and then durable.
	mem, err := serve.New(serve.Config{Chains: []serve.ChainSpec{{Name: "ref", Path: csv}}})
	if err != nil {
		return err
	}
	d, err := r.handlerIngest(mem, f, "serve.ingest")
	if err != nil {
		return err
	}
	r.set("serve.ingest_ms", "ms", d)
	walDir := filepath.Join(r.dir, "probe-wal")
	before := obs.Default.Snapshot().Counters
	durable, err := serve.New(serve.Config{
		Chains: []serve.ChainSpec{{Name: "ref", Path: csv}}, StreamDir: walDir,
		StreamFsync: fsyncPolicy, CheckpointEvery: ckptEvery,
	})
	if err != nil {
		return err
	}
	d, err = r.handlerIngest(durable, f, "serve.ingest_wal")
	if err != nil {
		return err
	}
	r.set("serve.ingest_wal_ms", "ms", d)
	after := obs.Default.Snapshot().Counters
	r.set("serve.wal_bytes_per_block", "B", float64(after["serve.wal.appended_bytes"]-before["serve.wal.appended_bytes"])/float64(probeSets*blocks))
	r.set("serve.fsyncs", "count", float64(after["serve.wal.fsyncs"]-before["serve.wal.fsyncs"]))
	r.set("serve.checkpoints", "count", float64(after["serve.wal.checkpoints"]-before["serve.wal.checkpoints"]))

	// Crash recovery: a copy of the live stream directory, WAL and all.
	copyDir := filepath.Join(r.dir, "probe-wal-copy")
	if err := copyTree(walDir, copyDir); err != nil {
		return err
	}
	var recovered *serve.Server
	d2, err := r.timed("serve.recover", 1, func() (err error) {
		recovered, err = serve.New(serve.Config{StreamDir: copyDir, StreamFsync: fsyncPolicy, CheckpointEvery: ckptEvery})
		return err
	})
	if err != nil {
		return err
	}
	if err := recovered.Close(); err != nil {
		return err
	}
	if n := len(recovered.DatasetNames()); n != probeSets {
		return fmt.Errorf("recovered %d sets, shipped %d", n, probeSets)
	}
	r.set("serve.recover_ms_per_set", "ms", ms(d2)/probeSets)
	d2, err = r.timed("serve.checkpoint", 1, durable.Close)
	if err != nil {
		return err
	}
	r.set("serve.checkpoint_ms", "ms", ms(d2)/probeSets)

	// The observer's HTTPSink over loopback into a fresh durable server.
	loop, err := serve.New(serve.Config{
		Chains: []serve.ChainSpec{{Name: "ref", Path: csv}}, StreamDir: filepath.Join(r.dir, "probe-wal-http"),
		StreamFsync: fsyncPolicy, CheckpointEvery: ckptEvery,
	})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(loop.Handler())
	defer ts.Close()
	defer loop.Close()
	var trips []time.Duration
	for k := 0; k < probeSets; k++ {
		sink := &observer.HTTPSink{URL: ts.URL, Dataset: fmt.Sprintf("loop-%d", k), Source: "s1"}
		for i, b := range f.s1 {
			_, end := r.tr.begin("observer.roundtrip", int64(k*1000+i+1), 0)
			t0 := time.Now()
			err := sink.Apply(context.Background(), b)
			trips = append(trips, time.Since(t0))
			end()
			if err != nil {
				return err
			}
		}
	}
	r.set("observer.roundtrip_ms", "ms", medianDur(trips))

	ratio, err := r.probeCache(loop, f)
	if err != nil {
		return err
	}
	r.set("serve.cache_hit_ratio", "ratio", ratio)
	r.ingestPathFigures()
	return nil
}

// handlerIngest ships probeSets copies of the feed through srv's handler
// and returns the median time per s1 block batch, in ms.
func (r *run) handlerIngest(srv *serve.Server, f *feed, span string) (float64, error) {
	h := srv.Handler()
	var ds []time.Duration
	for k := 0; k < probeSets; k++ {
		set := fmt.Sprintf("probe-%d", k)
		for i := range f.s1 {
			for _, leg := range []struct {
				b      *observer.Batch
				source string
			}{{f.s1[i], "s1"}, {f.s2[i], "s2"}} {
				body, err := frame(leg.b, set, leg.source)
				if err != nil {
					return 0, err
				}
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodPost, "/v2/ingest", bytes.NewReader(body))
				_, end := r.tr.begin(span, int64(k*1000+i+1), 0)
				t0 := time.Now()
				h.ServeHTTP(rec, req)
				el := time.Since(t0)
				end()
				if rec.Code != http.StatusOK {
					return 0, fmt.Errorf("%s: status %d: %s", span, rec.Code, rec.Body.String())
				}
				if leg.source == "s1" {
					ds = append(ds, el)
				}
			}
		}
	}
	return medianDur(ds), nil
}

// probeCache ships one more copy of the feed, paced, while a second
// goroutine runs the audit rotation against it, and returns the share of
// audits the result cache answered.
func (r *run) probeCache(srv *serve.Server, f *feed) (float64, error) {
	h := srv.Handler()
	set := "probe-cache"
	hits0 := obs.Default.Snapshot().Counters["serve.cache_hits"]
	var started atomic.Bool
	var stop atomic.Bool
	var wg sync.WaitGroup
	var audits int
	var auditErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; !stop.Load(); k++ {
			if !started.Load() {
				time.Sleep(time.Millisecond)
				continue
			}
			for _, q := range r.rotation(f, k) {
				rec := httptest.NewRecorder()
				path := strings.Replace(q, "{set}", set, 1)
				_, end := r.tr.begin("serve.audit."+auditName(path), 0, 0)
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, nil))
				end()
				audits++
				if rec.Code != http.StatusOK && auditErr == nil {
					auditErr = fmt.Errorf("%s: status %d", path, rec.Code)
				}
			}
		}
	}()
	for i := range f.s1 {
		for _, leg := range []struct {
			b      *observer.Batch
			source string
		}{{f.s1[i], "s1"}, {f.s2[i], "s2"}} {
			body, err := frame(leg.b, set, leg.source)
			if err != nil {
				stop.Store(true)
				wg.Wait()
				return 0, err
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/ingest", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				stop.Store(true)
				wg.Wait()
				return 0, fmt.Errorf("ingest: status %d", rec.Code)
			}
			started.Store(true)
		}
		time.Sleep(feedPeriod / 4)
	}
	stop.Store(true)
	wg.Wait()
	if auditErr != nil {
		return 0, auditErr
	}
	if audits == 0 {
		return 0, fmt.Errorf("no audit ran beside the probe feed")
	}
	return float64(obs.Default.Snapshot().Counters["serve.cache_hits"]-hits0) / float64(audits), nil
}

// ingestPathFigures adds the layer costs along one s1 block batch's ingest
// path, measured one layer at a time, and compares their sum with the
// traced run's ack_p50_ms (live-ingest only).
func (r *run) ingestPathFigures() {
	m := func(n string) float64 { return r.metrics[n].Value }
	perBatch := float64(batchBlocks)
	path := m("serve.decode_ms") + perBatch*(m("index.append_ms")+m("core.observe_block_us")/1000) +
		2*perBatch*m("index.first_seen_ms") + (m("serve.ingest_wal_ms") - m("serve.ingest_ms"))
	r.fig("path.layers_ms", path)
	r.fig("path.serve_handler_ms", m("serve.ingest_wal_ms"))
	if ack, ok := r.figures["ack_p50_ms"]; ok && r.workload == "live-ingest" {
		r.fig("path.layers_share_of_ack", path/ack)
		r.fig("path.handler_share_of_ack", m("serve.ingest_wal_ms")/ack)
	}
}

// copyTree copies a directory of regular files (a stream directory).
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
