package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/core"
	"chainaudit/internal/dataset"
	"chainaudit/internal/index"
	"chainaudit/internal/observer"
	"chainaudit/internal/serve"
)

// The live workloads feed one simulated data set C chain. Its seed is fixed
// so that every run simulates, frames and ships the same amount of work: the
// simulator's cost varies several-fold between seeds of the same span.
// --seed picks the second source's lag, the audit window, the dark-fee pool
// and where the audit rotation starts.
const (
	feedSeed    = 11
	feedSpan    = 8 * time.Hour // 43 blocks, 13,572 transactions
	shortSpan   = 4 * time.Hour // 17 blocks
	batchBlocks = 16            // the observer's default batch
	fsyncPolicy = "batch"       // chainauditd's default
	// ckptEvery compacts a set's WAL every two logged requests: a set takes
	// six requests (three block batches from s1, three snapshot batches
	// from s2), so checkpoints fire three times per set.
	ckptEvery = 2
	setups    = 3 // set-ups per run; setup_s is their median
	// feedPeriod is audit-mix's slot: one s1 block batch and its s2
	// snapshot batch are due every period (16 blocks/s, a quarter of what
	// live-ingest sustains on two cores).
	feedPeriod = time.Second
	// rotationsPerSlot is audit-mix's burst: 4 rotations (32 audits) per
	// feed slot, about 0.15 s of a 1 s slot on two quiet cores.
	rotationsPerSlot = 4
)

var darkfeePools = []string{"BTC.com", "ViaBTC", "Poolin"}

// feed is the chain being shipped, pre-split into the observer's batches.
type feed struct {
	chain  *chain.Chain
	ds     *dataset.Dataset
	csv    string
	s1     []*observer.Batch // blocks + snapshots, shipped as source s1
	s2     []*observer.Batch // the same snapshots lagged, shipped as source s2
	lag    time.Duration
	window int
	pool   string
}

// captureSink keeps the batches observer.Run stages, without applying them.
type captureSink struct{ batches []*observer.Batch }

func (s *captureSink) Apply(_ context.Context, b *observer.Batch) error {
	cp := *b
	s.batches = append(s.batches, &cp)
	return nil
}

func (r *run) newFeed(ds *dataset.Dataset, csv string) (*feed, error) {
	f := &feed{
		chain: ds.Result.Chain, ds: ds, csv: csv,
		lag:    2*time.Second + time.Duration(r.seed%4)*500*time.Millisecond,
		window: 8 + int(r.seed%9),
		pool:   darkfeePools[r.seed%3],
	}
	ctx := context.Background()
	var s1, s2 captureSink
	cfg := observer.Config{BatchBlocks: batchBlocks}
	if _, err := observer.Run(ctx, observer.NewChainSource(f.chain), &s1, cfg); err != nil {
		return nil, err
	}
	if _, err := observer.Run(ctx, &observer.LagSource{Src: observer.NewChainSource(f.chain), Lag: f.lag}, &s2, cfg); err != nil {
		return nil, err
	}
	if len(s1.batches) != len(s2.batches) {
		return nil, fmt.Errorf("feed: %d s1 batches but %d s2 batches", len(s1.batches), len(s2.batches))
	}
	f.s1 = s1.batches
	for _, b := range s2.batches {
		f.s2 = append(f.s2, &observer.Batch{Snapshots: b.Snapshots})
	}
	return f, nil
}

// frame renders a batch as the attributed /v2/ingest body the observer ships.
func frame(b *observer.Batch, set, source string) ([]byte, error) {
	req := b.Request(set)
	req.Source = source
	return json.Marshal(&req)
}

// buildFeed simulates the feed chain and writes it as a chain CSV.
func (r *run) buildFeed(req int64, parent int) (*dataset.Dataset, string, error) {
	span := feedSpan
	if r.short {
		span = shortSpan
	}
	_, end := r.tr.begin("sim.build_C", req, parent)
	t0 := time.Now()
	ds, err := dataset.BuildC(dataset.Options{Seed: feedSeed, Duration: span})
	r.feedBuilds = append(r.feedBuilds, time.Since(t0).Seconds())
	end()
	if err != nil {
		return nil, "", err
	}
	r.feedDS = ds
	_, end = r.tr.begin("dataset.csv_write", req, parent)
	defer end()
	path := filepath.Join(r.dir, "feed.csv")
	f, err := os.Create(path)
	if err != nil {
		return nil, "", err
	}
	w := bufio.NewWriter(f)
	if err := dataset.WriteChainCSV(w, ds.Result.Chain); err != nil {
		f.Close()
		return nil, "", err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, "", err
	}
	return ds, path, f.Close()
}

func (r *run) daemonArgs(csv string) []string {
	return []string{"-chain", "ref=" + csv, "-stream-dir", filepath.Join(r.dir, "wal"),
		"-stream-fsync", fsyncPolicy, "-stream-checkpoint", strconv.Itoa(ckptEvery)}
}

// setup simulates and writes the feed chain and boots chainauditd until it
// answers, several times, and reports the median set-up's CPU time: this
// process's own (simulating and writing the chain) plus the daemon's (reading
// the chain and booting). CPU time holds steady on a host whose other
// tenants take a varying share of the cores; wall time swings with them, so
// the median wall time is kept as the setup_wall_s figure. Each set-up's
// daemon is killed and reaped, which makes its CPU time exact; the daemon
// the workload runs against is booted afterwards, untimed.
func (r *run) setup(ctx context.Context) (*feed, *daemon, error) {
	n := setups
	if r.short {
		n = 1
	}
	var cpus, walls []float64
	var ds *dataset.Dataset
	var csv string
	for i := 0; i < n; i++ {
		if err := os.RemoveAll(filepath.Join(r.dir, "wal")); err != nil {
			return nil, nil, err
		}
		// Every set-up starts from the same heap: the previous one's chain
		// is garbage by now.
		ds = nil
		runtime.GC()
		id, end := r.tr.begin("setup", int64(i+1), 0)
		self0, kids0 := rusageCPU()
		t0 := time.Now()
		var err error
		if ds, csv, err = r.buildFeed(int64(i+1), id); err != nil {
			end()
			return nil, nil, err
		}
		_, endBoot := r.tr.begin("chainauditd.boot", int64(i+1), id)
		d, err := startDaemon(ctx, r.bin, r.dir, r.daemonArgs(csv))
		endBoot()
		walls = append(walls, time.Since(t0).Seconds())
		end()
		if err != nil {
			return nil, nil, err
		}
		self1, _ := rusageCPU()
		d.kill()
		_, kids1 := rusageCPU()
		cpus = append(cpus, (self1 - self0 + kids1 - kids0).Seconds())
	}
	r.set("setup_s", "s", median(cpus))
	r.fig("setup_wall_s", median(walls))
	if err := os.RemoveAll(filepath.Join(r.dir, "wal")); err != nil {
		return nil, nil, err
	}
	d, err := startDaemon(ctx, r.bin, r.dir, r.daemonArgs(csv))
	if err != nil {
		return nil, nil, err
	}
	f, err := r.newFeed(ds, csv)
	if err != nil {
		d.kill()
		return nil, nil, err
	}
	return f, d, nil
}

// live runs live-ingest (closed-loop feed, then SIGKILL and recovery) or
// audit-mix (open-loop feed beside a closed-loop audit client).
func (r *run) live(auditMix bool) error {
	ctx := context.Background()
	f, d, err := r.setup(ctx)
	if err != nil {
		return err
	}
	defer func() { d.kill() }()
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return err
	}
	var sets []string
	var units []float64
	t0 := time.Now()
	if auditMix {
		sets, units, err = r.auditMix(f, d)
	} else {
		sets, units, err = r.closedFeed(f, d)
	}
	if err != nil {
		return err
	}
	feedWall := time.Since(t0)
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return err
	}
	rss, err := procPeakRSS(d.pid())
	if err != nil {
		return err
	}
	if len(units) == 0 {
		return fmt.Errorf("no unit of work completed (first failure: %s)", r.first)
	}
	r.set("peak_rss_mb", "MB", rss)
	r.set("cpu_s", "s", (cpu1-cpu0).Seconds()/float64(len(units)))
	r.set("unit_s", "s", median(units))
	r.fig("unit_s", median(units))
	r.fig("sets", float64(len(sets)))
	r.fig("ingest_blocks_per_s", float64(len(sets)*f.chain.Len())/feedWall.Seconds())
	r.fig("daemon_cpu_s", (cpu1 - cpu0).Seconds())
	if err := r.walFigures(d, len(sets)*f.chain.Len()); err != nil {
		return err
	}

	c := oneConnClient()
	before := r.checkSets(c, d, f, sets)
	if auditMix {
		r.checkWindowed(c, d, f, sets[len(sets)-1])
		return nil
	}
	// Crash and recover: every set must come back at its pre-kill height
	// with the same fingerprint and the same audit results.
	d.kill()
	t1 := time.Now()
	d2, err := startDaemon(ctx, r.bin, r.dir, r.daemonArgs(f.csv))
	if err != nil {
		r.op("recover", err)
		return nil
	}
	d = d2
	for {
		var h health
		err := getJSON(c, d.addr+"/v1/healthz", &h)
		if err == nil && h.complete(sets, f) {
			break
		}
		if time.Since(t1) > 60*time.Second {
			r.op("recover", fmt.Errorf("sets not recovered after 60s (last error %v)", err))
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	r.op("recover", nil)
	r.fig("recover_s", time.Since(t1).Seconds())
	after := r.checkSets(c, d, f, sets)
	for name, fp := range before {
		r.check(after[name] == fp, "set %s: fingerprint %s before the kill, %s after recovery", name, fp, after[name])
	}
	return nil
}

// closedFeed ships the chain into fresh sets, one request at a time. The
// number of sets is fixed by the run length (one per second), not by how
// fast they go in: the daemon's memory, its recovery time and its CPU per
// set all grow with the sets it holds, so a fixed amount of work keeps a
// faster ingest path from reading as a memory or recovery regression.
func (r *run) closedFeed(f *feed, d *daemon) ([]string, []float64, error) {
	c := oneConnClient()
	var sets []string
	var units []float64
	var acks []time.Duration
	n := max(1, int(r.seconds/time.Second))
	for k := 0; k < n; k++ {
		name := fmt.Sprintf("live-%d-%d", r.seed, k)
		setID, endSet := r.tr.begin("set", int64(k+1), 0)
		t0 := time.Now()
		for i := range f.s1 {
			req := int64(k*1000 + i + 1)
			for _, leg := range []struct {
				b      *observer.Batch
				source string
			}{{f.s1[i], "s1"}, {f.s2[i], "s2"}} {
				ack, err := r.ship(c, d, leg.b, name, leg.source, req, setID, time.Time{})
				r.op("ingest", err)
				if leg.source == "s1" && err == nil {
					acks = append(acks, ack)
				}
			}
		}
		units = append(units, time.Since(t0).Seconds())
		endSet()
		sets = append(sets, name)
	}
	r.fig("ack_p50_ms", medianDur(acks))
	r.fig("ack_samples", float64(len(acks)))
	return sets, units, nil
}

// ship frames one batch and posts it, returning emit-to-ack time. With a
// non-zero due time (open loop) the time runs from when the request was due.
func (r *run) ship(c *http.Client, d *daemon, b *observer.Batch, set, source string, req int64, parent int, due time.Time) (time.Duration, error) {
	id, end := r.tr.begin("ingest."+source, req, parent)
	defer end()
	_, endFrame := r.tr.begin("observer.frame", req, id)
	body, err := frame(b, set, source)
	endFrame()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if !due.IsZero() {
		t0 = due
	}
	_, endPost := r.tr.begin("http.ingest", req, id)
	out, err := post(c, d.addr+"/v2/ingest", bytes.NewReader(body), int64(len(body)))
	endPost()
	ack := time.Since(t0)
	if err != nil {
		return ack, err
	}
	var resp serve.IngestResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return ack, err
	}
	if resp.Appended != len(b.Blocks) || resp.Snapshots != len(b.Snapshots) {
		return ack, fmt.Errorf("set %s: applied %d blocks and %d snapshots, sent %d and %d",
			set, resp.Appended, resp.Snapshots, len(b.Blocks), len(b.Snapshots))
	}
	return ack, nil
}

// auditMix runs two clients on one fixed schedule of slots. In each slot the
// feed ships one s1 block batch and its s2 snapshot batch, open loop, while
// the audit client runs a burst of rotationsPerSlot audit rotations against
// the newest set, closed loop, starting at the same due time, so that its
// reads meet the slot's appends at the set lock. Both amounts of work are
// fixed by the run length; a burst is the workload's unit of work.
func (r *run) auditMix(f *feed, d *daemon) ([]string, []float64, error) {
	// The schedule covers the run length in whole sets.
	perSet := feedPeriod * time.Duration(len(f.s1))
	n := max(1, int((r.seconds+perSet-1)/perSet))
	slots := n * len(f.s1)
	hits0, err := cacheHits(d)
	if err != nil {
		return nil, nil, err
	}
	var current atomic.Value   // name of the newest set with data
	fed := make(chan struct{}) // closed once the feed has shipped its last slot
	// newest returns the newest set with data, waiting for the first ack;
	// "" once the feed has finished without one.
	newest := func() string {
		for {
			if v := current.Load(); v != nil {
				return v.(string)
			}
			select {
			case <-fed:
				if v := current.Load(); v != nil {
					return v.(string)
				}
				return ""
			case <-time.After(time.Millisecond):
			}
		}
	}
	var wg sync.WaitGroup
	var lat, burstLate []time.Duration
	var units []float64
	var attempted, failed int
	var firstErr error
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := oneConnClient()
		k := 0
		for slot := 0; slot < slots; slot++ {
			due := start.Add(time.Duration(slot) * feedPeriod)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			if newest() == "" {
				// No set to audit: the burst's audits count as failed.
				n := rotationsPerSlot * len(r.rotation(f, k))
				k += rotationsPerSlot
				attempted += n
				failed += n
				if firstErr == nil {
					firstErr = errors.New("no ingest was acknowledged, so no set could be audited")
				}
				continue
			}
			burstLate = append(burstLate, time.Since(due))
			t0 := time.Now()
			for b := 0; b < rotationsPerSlot; b, k = b+1, k+1 {
				set := newest()
				rot := r.rotation(f, k)
				for j := range rot {
					q := rot[(j+int(r.seed))%len(rot)]
					path := strings.Replace(q, "{set}", url.QueryEscape(set), 1)
					_, end := r.tr.begin("audit."+auditName(path), int64(k*100+j+1), 0)
					q0 := time.Now()
					_, err := post(c, d.addr+path, nil, 0)
					lat = append(lat, time.Since(q0))
					end()
					attempted++
					if err != nil {
						failed++
						if firstErr == nil {
							firstErr = err
						}
					}
				}
			}
			units = append(units, time.Since(t0).Seconds())
		}
	}()

	c := oneConnClient()
	var sets []string
	var acks, late []time.Duration
	slot := 0
	for k := 0; k < n; k++ {
		name := fmt.Sprintf("mix-%d-%d", r.seed, k)
		for i := range f.s1 {
			due := start.Add(time.Duration(slot) * feedPeriod)
			slot++
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			late = append(late, time.Since(due))
			req := int64(k*1000 + i + 1)
			ack, err := r.ship(c, d, f.s1[i], name, "s1", req, 0, due)
			r.op("ingest", err)
			if err == nil {
				acks = append(acks, ack)
				current.Store(name)
			}
			_, err = r.ship(c, d, f.s2[i], name, "s2", req, 0, due)
			r.op("ingest", err)
		}
		sets = append(sets, name)
	}
	close(fed)
	wg.Wait()
	r.ops["audit"] += attempted
	r.fails["audit"] += failed
	if firstErr != nil && r.first == "" {
		r.first = "audit: " + firstErr.Error()
	}
	hits1, err := cacheHits(d)
	if err != nil {
		return nil, nil, err
	}
	r.fig("ack_p50_ms", medianDur(acks))
	r.fig("generator_late_p50_ms", medianDur(late))
	r.fig("generator_late_max_ms", percentile(late, 1))
	if len(burstLate) > 1 {
		r.fig("burst_late_max_ms", percentile(burstLate[1:], 1))
	}
	r.fig("audit_p50_ms", percentile(lat, 0.5))
	r.fig("audit_samples", float64(len(lat)))
	// A tail is kept only while at least ten samples lie beyond it.
	if len(lat) >= 200 {
		r.fig("audit_p95_ms", percentile(lat, 0.95))
	}
	if len(lat) >= 1000 {
		r.fig("audit_p99_ms", percentile(lat, 0.99))
	}
	var busy float64
	for _, u := range units {
		busy += u
	}
	r.fig("audits_per_s", float64(len(lat))/busy)
	if len(lat) > 0 {
		r.fig("cache_hit_ratio", float64(hits1-hits0)/float64(len(lat)))
	}
	return sets, units, nil
}

// rotation is the audit rotation for pass k; {set} stands for the set being
// fed. The full-set ppe, lowfee and selfinterest audits repeat verbatim, so
// between two appends only their first pass misses the result cache. The
// others step their knob on every pass, as an analyst sweeping windows and
// thresholds would; the divergence threshold never repeats within a run, so
// every pass pays for one divergence audit whatever the timing.
func (r *run) rotation(f *feed, k int) []string {
	pool := url.QueryEscape(f.pool)
	w := strconv.Itoa(1 + k%f.chain.Len())
	sppe := strconv.Itoa(50 + k%50)
	thr := strconv.Itoa(1000 + 10*k)
	return []string{
		"/v1/audits/ppe?dataset={set}",
		"/v1/audits/lowfee?dataset={set}",
		"/v1/audits/darkfee?dataset={set}&pool=" + pool + "&sppe=" + sppe,
		"/v1/audits/selfinterest?dataset={set}",
		"/v1/audits/ppe?dataset={set}&window=" + w,
		"/v1/audits/lowfee?dataset={set}&window=" + w,
		"/v1/audits/darkfee?dataset={set}&pool=" + pool + "&sppe=" + sppe + "&window=" + w,
		"/v1/audit/divergence?dataset={set}&threshold_ms=" + thr,
	}
}

// auditName names an audit path for its span: kind plus "_window".
func auditName(path string) string {
	p, q, _ := strings.Cut(path, "?")
	name := p[strings.LastIndexByte(p, '/')+1:]
	if strings.Contains(q, "window=") {
		name += "_window"
	}
	return name
}

func cacheHits(d *daemon) (int64, error) {
	m, err := daemonMetrics(d)
	if err != nil {
		return 0, err
	}
	return int64(m.Metrics.Counters["serve.cache_hits"]), nil
}

type metricsDoc struct {
	Metrics struct {
		Counters map[string]float64 `json:"counters"`
	} `json:"metrics"`
}

func daemonMetrics(d *daemon) (*metricsDoc, error) {
	var m metricsDoc
	err := getJSON(oneConnClient(), d.addr+"/v1/metrics", &m)
	return &m, err
}

// walFigures records the WAL's counters as the daemon reports them.
func (r *run) walFigures(d *daemon, blocks int) error {
	m, err := daemonMetrics(d)
	if err != nil {
		return err
	}
	c := m.Metrics.Counters
	r.fig("wal_bytes_per_block", c["serve.wal.appended_bytes"]/float64(blocks))
	r.fig("wal_fsyncs", c["serve.wal.fsyncs"])
	r.fig("wal_checkpoints", c["serve.wal.checkpoints"])
	return nil
}

// health is the part of /v1/healthz the checks read.
type health struct {
	Datasets []struct {
		Name        string   `json:"name"`
		Fingerprint string   `json:"fingerprint"`
		IndexLen    int      `json:"index_len"`
		Sources     []string `json:"sources"`
		Watermark   *struct {
			Height int64 `json:"height"`
		} `json:"watermark"`
	} `json:"datasets"`
}

// complete reports whether every set is listed at the feed's full height.
func (h *health) complete(sets []string, f *feed) bool {
	got := map[string]bool{}
	for _, ds := range h.Datasets {
		if ds.IndexLen == f.chain.Len() && ds.Watermark != nil && ds.Watermark.Height == f.chain.Tip().Height {
			got[ds.Name] = true
		}
	}
	for _, s := range sets {
		if !got[s] {
			return false
		}
	}
	return true
}

// checkSets checks every fed set's health and audits against the same chain
// loaded from CSV at boot, and returns the sets' fingerprints.
func (r *run) checkSets(c *http.Client, d *daemon, f *feed, sets []string) map[string]string {
	var h health
	err := getJSON(c, d.addr+"/v1/healthz", &h)
	r.op("healthz", err)
	fps := map[string]string{}
	if err != nil {
		return fps
	}
	byName := map[string]int{}
	for i, ds := range h.Datasets {
		byName[ds.Name] = i
	}
	w := strconv.Itoa(f.window)
	audits := []string{"ppe", "lowfee", "ppe&window=" + w, "lowfee&window=" + w}
	ref := map[string][]byte{}
	for _, a := range audits {
		kind, params, _ := strings.Cut(a, "&")
		if params != "" {
			params = "&" + params
		}
		body, err := post(c, d.addr+"/v1/audits/"+kind+"?dataset=ref&format=text"+params, nil, 0)
		r.op("audit", err)
		ref[a] = body
	}
	for _, s := range sets {
		i, ok := byName[s]
		r.check(ok, "set %s missing from healthz", s)
		if !ok {
			continue
		}
		ds := h.Datasets[i]
		fps[s] = ds.Fingerprint
		r.check(ds.IndexLen == f.chain.Len(), "set %s: index_len %d, fed %d blocks", s, ds.IndexLen, f.chain.Len())
		r.check(ds.Watermark != nil && ds.Watermark.Height == f.chain.Tip().Height,
			"set %s: watermark %v, fed up to height %d", s, ds.Watermark, f.chain.Tip().Height)
		r.check(strings.Join(ds.Sources, ",") == "s1,s2", "set %s: sources %v, want [s1 s2]", s, ds.Sources)
		for _, a := range audits {
			kind, params, _ := strings.Cut(a, "&")
			if params != "" {
				params = "&" + params
			}
			body, err := post(c, d.addr+"/v1/audits/"+kind+"?dataset="+s+"&format=text"+params, nil, 0)
			r.op("audit", err)
			r.check(err != nil || bytes.Equal(body, ref[a]), "set %s: %s audit differs from the CSV-loaded chain", s, a)
		}
		var env serve.Envelope
		body, err := post(c, d.addr+"/v1/audit/divergence?dataset="+s, nil, 0)
		if err == nil {
			err = json.Unmarshal(body, &env)
		}
		r.op("audit", err)
		r.check(err != nil || (len(env.Notes) > 0 && strings.HasSuffix(env.Notes[0], "flagged: s2")),
			"set %s: divergence notes %v, want exactly s2 flagged", s, env.Notes)
	}
	return fps
}

// checkWindowed checks the service's final windowed audits of a set against
// a batch audit computed here over chain.Suffix(window).
func (r *run) checkWindowed(c *http.Client, d *daemon, f *feed, set string) {
	suffix := f.chain.Suffix(f.window)
	aud := core.NewIndexedAuditor(index.Build(suffix, f.ds.Registry))
	var ppe, low bytes.Buffer
	err := core.WritePPESection(&ppe, aud.AuditPPE(core.AuditOptions{}))
	if err == nil {
		err = core.WriteLowFeeSection(&low, aud.AuditLowFee(core.AuditOptions{}))
	}
	r.check(err == nil, "batch audit render: %v", err)
	for kind, want := range map[string][]byte{"ppe": ppe.Bytes(), "lowfee": low.Bytes()} {
		body, err := post(c, fmt.Sprintf("%s/v1/audits/%s?dataset=%s&window=%d&format=text", d.addr, kind, set, f.window), nil, 0)
		r.op("audit", err)
		r.check(err != nil || bytes.Equal(body, want), "set %s: windowed %s over %d blocks differs from the batch audit of chain.Suffix(%d)",
			set, kind, f.window, f.window)
	}
}
