package serve

// Crash-state tests for sealed WAL generations (DESIGN.md §13): each test
// builds one directory a crash can leave — by stopping the protocol at a
// chosen step, since a killed process is just a Server nobody calls again
// — recovers it, ships the rest of the feed, and holds the set to an
// uninterrupted one in fingerprint and audit text.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// settleWrites waits until no set of s has a checkpoint write in flight.
func settleWrites(t *testing.T, s *Server) {
	t.Helper()
	for _, name := range s.DatasetNames() {
		set, err := s.lookupSet(name)
		if err != nil {
			t.Fatal(err)
		}
		if set.wal == nil {
			continue
		}
		set.mu.Lock()
		set.wal.wait()
		set.mu.Unlock()
	}
}

// feedSettled posts each batch and lets the checkpoint write it started
// finish before the next, so seals fall exactly every CheckpointEvery lines.
func feedSettled(t *testing.T, s *Server, batches []IngestRequest) {
	t.Helper()
	for i, req := range batches {
		if rr := postJSON(t, s.Handler(), "/v1/ingest", req); rr.Code != http.StatusOK {
			t.Fatalf("ingest batch %d = %d: %s", i, rr.Code, rr.Body.String())
		}
		settleWrites(t, s)
	}
}

// ingestHeld runs one batch through ingest's critical section, as the
// handler does, but returns the checkpoint write its seal started instead
// of starting it: the caller decides how far the write gets.
func ingestHeld(t *testing.T, s *Server, req IngestRequest) *ckptWrite {
	t.Helper()
	batch, err := DecodeBatch(&req)
	if err != nil {
		t.Fatal(err)
	}
	set, err := s.lookupStreamSet(req.Dataset, true)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	var resp IngestResponse
	status, ck := s.ingestLocked(set, body, batch, &resp)
	if status != http.StatusOK {
		t.Fatalf("ingest = %d: %s", status, resp.Error)
	}
	if ck == nil {
		t.Fatal("the batch did not seal the log")
	}
	t.Cleanup(func() {
		select {
		case <-ck.done:
		default:
			// The test never ran the write, as when the process dies before
			// it starts; end it so that settling the server's writes returns.
			ck.err = errors.New("killed before the write started")
			close(ck.done)
		}
	})
	return ck
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// copyFiles copies dir's files one by one into a fresh directory, the way
// a backup tool or perfbench's probe does. Any file vanishing mid-copy
// fails the test: only a seal or recovery may delete, and neither runs.
func copyFiles(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	for name, raw := range dirFiles(t, dir) {
		if err := os.WriteFile(filepath.Join(dst, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// dirFiles reads every file in dir, by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = raw
	}
	return out
}

// coveredBy reports whether checkpoint gen covers the set "live"'s file
// name: a sealed generation up to gen or a checkpoint before it.
func coveredBy(name string, gen int64) bool {
	for prefix, newest := range map[string]int64{"live.wal.": gen, "live.ckpt.": gen - 1} {
		if rest, ok := strings.CutPrefix(name, prefix); ok {
			g, err := strconv.ParseInt(rest, 10, 64)
			return err == nil && g <= newest
		}
	}
	return false
}

// bootOnlyTrims boots a server over dir, as a restart would, and fails
// unless the boot left every file's bytes as they were but for the two
// changes recovery may make: cutting a torn tail off the live log and
// deleting what the restored checkpoint covers. It writes no checkpoint.
func bootOnlyTrims(t *testing.T, dir string, every int) *Server {
	t.Helper()
	before := dirFiles(t, dir)
	s := reopenAt(t, dir, every)
	after := dirFiles(t, dir)
	set, err := s.lookupSet("live")
	if err != nil {
		t.Fatal(err)
	}
	set.mu.Lock()
	restored := set.wal.published
	set.mu.Unlock()
	truncated := recoveryOf(t, s).Truncated
	for name, raw := range after {
		old, ok := before[name]
		switch {
		case !ok:
			t.Errorf("boot created %s", name)
		case name == "live"+walSuffix && truncated && len(raw) < len(old) && bytes.HasPrefix(old, raw):
			// the torn tail, cut off
		case !bytes.Equal(raw, old):
			t.Errorf("boot changed the bytes of %s", name)
		}
	}
	for name := range before {
		if _, ok := after[name]; !ok && !coveredBy(name, restored) {
			t.Errorf("boot deleted %s, which the restored checkpoint %d does not cover", name, restored)
		}
	}
	return s
}

// recoverAndFinish boots a server over dir, checks that the boot wrote
// nothing, ships rest, and compares the set with the uninterrupted
// reference.
func recoverAndFinish(t *testing.T, dir string, every int, rest []IngestRequest, wantFP string, want map[string]string) *Server {
	t.Helper()
	s := bootOnlyTrims(t, dir, every)
	feedBatches(t, s.Handler(), rest)
	hz, i := healthFor(t, s.Handler(), "live")
	if got := hz.Datasets[i].Fingerprint; got != wantFP {
		t.Errorf("recovered fingerprint %q, uninterrupted %q", got, wantFP)
	}
	got := auditTexts(t, s.Handler(), "live", 8)
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: recovered audit diverged from uninterrupted:\n--- uninterrupted ---\n%s--- recovered ---\n%s", k, w, got[k])
		}
	}
	return s
}

func recoveryOf(t *testing.T, s *Server) *recoveryInfo {
	t.Helper()
	hz, i := healthFor(t, s.Handler(), "live")
	rec := hz.Datasets[i].Recovery
	if rec == nil {
		t.Fatal("recovered set reports no recovery info")
	}
	return rec
}

func TestWALGenerationCrashStates(t *testing.T) {
	const every = 3
	sRef, c, _ := streamFixture(t)
	batches := mkIngestBatches(c, "live", 2)
	if len(batches) < 8 {
		t.Fatalf("fixture too small: %d batches", len(batches))
	}
	last := feedBatches(t, sRef.Handler(), batches)
	want := auditTexts(t, sRef.Handler(), "live", 8)

	// sealedAt logs batches[:6] with every earlier checkpoint written; the
	// sixth batch seals generation 2 and its checkpoint write is returned
	// unstarted. At that instant the directory holds checkpoint 1, sealed
	// generation 2 (generation 1 went at the seal, checkpoint 1 covering
	// it) and an empty live log.
	sealedAt := func(t *testing.T) (string, *Server, *ckptWrite) {
		dir := t.TempDir()
		s, _, _ := streamFixtureCfg(t, func(cfg *Config) {
			cfg.StreamDir = dir
			cfg.CheckpointEvery = every
		})
		feedSettled(t, s, batches[:5])
		ck := ingestHeld(t, s, batches[5])
		for _, f := range []string{"live.ckpt.1", "live.wal.2", "live.wal"} {
			if !exists(filepath.Join(dir, f)) {
				t.Fatalf("%s missing right after the seal", f)
			}
		}
		if exists(filepath.Join(dir, "live.wal.1")) || exists(filepath.Join(dir, "live.ckpt.2")) {
			t.Fatal("generation 1 survived its covering checkpoint's next seal, or checkpoint 2 exists before its write")
		}
		return dir, s, ck
	}

	t.Run("killed after seal, before publish", func(t *testing.T) {
		dir, _, _ := sealedAt(t)
		s := recoverAndFinish(t, dir, every, batches[6:], last.Fingerprint, want)
		if rec := recoveryOf(t, s); rec.CheckpointBlocks != 6 || rec.WALLines != 3 || rec.WALBlocks != 6 {
			t.Errorf("recovery = %+v, want checkpoint 1's 6 blocks and generation 2's 3 lines / 6 blocks", rec)
		}
	})

	t.Run("killed mid checkpoint write", func(t *testing.T) {
		dir, _, ck := sealedAt(t)
		var raw bytes.Buffer
		if err := ck.ck.encodeTo(&raw); err != nil {
			t.Fatal(err)
		}
		torn := filepath.Join(dir, "live.ckpt.2")
		if err := os.WriteFile(torn, raw.Bytes()[:raw.Len()/2], 0o644); err != nil {
			t.Fatal(err)
		}
		s := recoverAndFinish(t, dir, every, batches[6:], last.Fingerprint, want)
		if rec := recoveryOf(t, s); rec.CheckpointBlocks != 6 || rec.WALLines != 3 {
			t.Errorf("recovery = %+v, want checkpoint 1 plus generation 2 (the torn checkpoint skipped)", rec)
		}
	})

	t.Run("killed after publish, before deletion", func(t *testing.T) {
		dir, _, ck := sealedAt(t)
		ck.run()
		if ck.err != nil {
			t.Fatal(ck.err)
		}
		var head struct {
			WALGen int64 `json:"wal_gen"`
		}
		raw, err := os.ReadFile(filepath.Join(dir, "live.ckpt.2"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &head); err != nil || head.WALGen != 2 {
			t.Fatalf("checkpoint 2 head = %+v (%v), want wal_gen 2", head, err)
		}
		s := recoverAndFinish(t, dir, every, batches[6:], last.Fingerprint, want)
		if rec := recoveryOf(t, s); rec.CheckpointBlocks != 12 || rec.WALLines != 0 {
			t.Errorf("recovery = %+v, want checkpoint 2's 12 blocks and nothing to replay", rec)
		}
		for _, f := range []string{"live.ckpt.1", "live.wal.2"} {
			if exists(filepath.Join(dir, f)) {
				t.Errorf("%s, covered by checkpoint 2, survived recovery", f)
			}
		}
	})

	t.Run("torn live tail after a seal", func(t *testing.T) {
		dir, s, ck := sealedAt(t)
		ck.run()
		// The process lives on: batch 6 lands in the fresh live log, then
		// the process dies midway through appending batch 7.
		feedSettled(t, s, batches[6:7])
		line, err := json.Marshal(&batches[7])
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(filepath.Join(dir, "live.wal"), os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(line[:len(line)/2]); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		s = recoverAndFinish(t, dir, every, batches[7:], last.Fingerprint, want)
		if rec := recoveryOf(t, s); !rec.Truncated || rec.WALLines != 1 {
			t.Errorf("recovery = %+v, want one replayed line and a truncated tail", rec)
		}
	})
}

// reopenAt boots a server over dir, as a restart would.
func reopenAt(t *testing.T, dir string, every int) *Server {
	t.Helper()
	s, _, _ := streamFixtureCfg(t, func(cfg *Config) {
		cfg.StreamDir = dir
		cfg.CheckpointEvery = every
	})
	return s
}

// TestPreGenerationCheckpointFailsBoot pins that a checkpoint with no
// generation, <set>.ckpt from the layout before sealed generations, fails
// the boot by name instead of being skipped: it covers a prefix of the log,
// and skipping it would silently drop that prefix.
func TestPreGenerationCheckpointFailsBoot(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{"live.wal", "live.ckpt"} {
		if err := os.WriteFile(filepath.Join(dir, f), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := New(Config{StreamDir: dir})
	if err == nil || !strings.Contains(err.Error(), filepath.Join(dir, "live.ckpt")) {
		t.Errorf("boot over a pre-generation checkpoint = %v, want an error naming %s", err, filepath.Join(dir, "live.ckpt"))
	}
}

// TestWALCopyDuringCheckpointWrite copies a stream directory file by file
// while a background checkpoint write is in flight, and once more with
// that checkpoint cut short as a copy taken mid-write would see it. Both
// copies recover to the uninterrupted set, and the live server, which goes
// on ingesting while its write runs, ends there too.
func TestWALCopyDuringCheckpointWrite(t *testing.T) {
	const every = 3
	sRef, c, _ := streamFixture(t)
	batches := mkIngestBatches(c, "live", 2)
	if len(batches) < 8 {
		t.Fatalf("fixture too small: %d batches", len(batches))
	}
	last := feedBatches(t, sRef.Handler(), batches)
	want := auditTexts(t, sRef.Handler(), "live", 8)

	dir := t.TempDir()
	s := reopenAt(t, dir, every)
	feedSettled(t, s, batches[:5])
	ck := ingestHeld(t, s, batches[5])
	go ck.run()
	inFlight := copyFiles(t, dir)
	<-ck.done
	if ck.err != nil {
		t.Fatal(ck.err)
	}
	midWrite := copyFiles(t, dir)
	ckpt := filepath.Join(midWrite, "live.ckpt.2")
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	// The live server keeps ingesting; its next seal runs beside nothing.
	gotLast := feedBatches(t, s.Handler(), batches[6:])
	if gotLast.Fingerprint != last.Fingerprint {
		t.Errorf("live fingerprint %q, uninterrupted %q", gotLast.Fingerprint, last.Fingerprint)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for name, copyDir := range map[string]string{"in flight": inFlight, "mid write": midWrite} {
		t.Run(name, func(t *testing.T) {
			recoverAndFinish(t, copyDir, every, batches[6:], last.Fingerprint, want)
		})
	}
}

// TestWALSealDeferredWhileWriteInFlight holds a background checkpoint write
// while the live log comes due for its next seal: the seal waits, and
// serve.wal.seals_deferred on /v1/metrics counts the append that skipped
// it. The first append after the write ends seals the log.
func TestWALSealDeferredWhileWriteInFlight(t *testing.T) {
	const every = 2
	_, c, _ := streamFixture(t)
	batches := mkIngestBatches(c, "live", 2)
	if len(batches) < 7 {
		t.Fatalf("fixture too small: %d batches", len(batches))
	}
	dir := t.TempDir()
	s := reopenAt(t, dir, every)
	deferred := func() int64 {
		t.Helper()
		m := decode[struct {
			Metrics struct {
				Counters map[string]int64 `json:"counters"`
			} `json:"metrics"`
		}](t, do(t, s.Handler(), "GET", "/v1/metrics"))
		return m.Metrics.Counters["serve.wal.seals_deferred"]
	}

	// Batches 0 and 1 seal generation 1; batch 3 seals generation 2, and
	// its checkpoint write is held.
	feedSettled(t, s, batches[:3])
	ck := ingestHeld(t, s, batches[3])
	before := deferred()
	// Batch 5 makes the live log due while the write is in flight.
	feedBatches(t, s.Handler(), batches[4:6])
	if got := deferred(); got <= before {
		t.Errorf("serve.wal.seals_deferred = %d after a due append met a write in flight, was %d", got, before)
	}
	if exists(filepath.Join(dir, "live.wal.3")) {
		t.Fatal("the log sealed while the previous checkpoint write was in flight")
	}

	ck.run()
	if ck.err != nil {
		t.Fatal(ck.err)
	}
	feedBatches(t, s.Handler(), batches[6:7])
	settleWrites(t, s)
	for _, f := range []string{"live.wal.3", "live.ckpt.3"} {
		if !exists(filepath.Join(dir, f)) {
			t.Errorf("%s missing: the first append after the write ended did not seal the log", f)
		}
	}
}

// TestCheckpointEncodingIsMarshal pins the checkpoint writer to the bytes
// json.Marshal gives the whole checkpoint as encoding/json decodes it
// (oracleDecodeCheckpoint, not the checkpoint reader), per-source ledger
// included, and to determinism across captures: map iteration order never
// reaches the file.
func TestCheckpointEncodingIsMarshal(t *testing.T) {
	s, c, _ := streamFixture(t)
	for i, req := range mkIngestBatches(c, "live", 4) {
		req.Source = "s1"
		lagged := IngestRequest{Dataset: "live", Source: "s2", Mempool: req.Mempool}
		for _, r := range []IngestRequest{req, lagged} {
			if rr := postJSON(t, s.Handler(), "/v2/ingest", r); rr.Code != http.StatusOK {
				t.Fatalf("ingest batch %d (%s) = %d: %s", i, r.Source, rr.Code, rr.Body.String())
			}
		}
	}
	set, err := s.lookupSet("live")
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := captureCheckpoint(set, 7).encodeTo(&a); err != nil {
		t.Fatal(err)
	}
	if err := captureCheckpoint(set, 7).encodeTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two captures of one state encode differently")
	}
	var ck walCheckpoint
	if err := oracleDecodeCheckpoint(a.Bytes(), &ck); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(&ck)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), append(want, '\n')) {
		t.Error("streamed encoding differs from json.Marshal of the checkpoint")
	}
	if ck.WALGen != 7 || len(ck.Blocks) != c.Len() || len(ck.FirstSeen) == 0 || len(ck.SourceSeen) == 0 {
		t.Errorf("checkpoint has wal_gen %d, %d blocks, %d first-seen and %d per-source rows; want 7, %d and nonzero ledgers",
			ck.WALGen, len(ck.Blocks), len(ck.FirstSeen), len(ck.SourceSeen), c.Len())
	}
}

// TestScanStreamDirNames pins how file names map to sets and roles when
// set names themselves hold dots, digits and role words.
func TestScanStreamDirNames(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{
		"a.wal", "a.wal.1", "a.wal.12", "a.ckpt.12",
		"a.wal.wal", "a.wal.wal.3", // set "a.wal"
		"b.7.wal", "b.7.ckpt.2", // set "b.7"
		"c.ckpt.tmp",                        // not ours
		"d.wal.007", "e.wal.0", "notes.txt", // not canonical generations, not ours
	} {
		if err := os.WriteFile(filepath.Join(dir, f), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := scanStreamDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]streamFiles{
		"a":     {live: true, gens: []int64{1, 12}, ckpts: []int64{12}},
		"a.wal": {live: true, gens: []int64{3}},
		"b.7":   {live: true, ckpts: []int64{2}},
	}
	if len(got) != len(want) {
		t.Errorf("scanned sets %v, want %d sets", got, len(want))
	}
	for name, w := range want {
		g := got[name]
		if g == nil {
			t.Errorf("set %q not found", name)
			continue
		}
		sort.Slice(g.gens, func(i, j int) bool { return g.gens[i] < g.gens[j] })
		sort.Slice(g.ckpts, func(i, j int) bool { return g.ckpts[i] < g.ckpts[j] })
		if !reflect.DeepEqual(*g, w) {
			t.Errorf("set %q: %+v, want %+v", name, *g, w)
		}
	}
}
