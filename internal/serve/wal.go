package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"chainaudit/internal/chain"
	"chainaudit/internal/faults"
	"chainaudit/internal/index"
	"chainaudit/internal/obs"
	"chainaudit/internal/poolid"
	"chainaudit/internal/stream"
)

// Durable-streaming metrics (DESIGN.md §13). Recovery metrics describe the
// most recent boot; append metrics accumulate over the process lifetime.
var (
	mWALAppends     = obs.Default.Counter("serve.wal.appends")
	mWALBytes       = obs.Default.Counter("serve.wal.appended_bytes")
	mWALFsyncs      = obs.Default.Counter("serve.wal.fsyncs")
	mWALCheckpoints = obs.Default.Counter("serve.wal.checkpoints")
	mWALTruncations = obs.Default.Counter("serve.wal.truncations")
	// mWALSealsDeferred counts appends that made a log due for a seal while
	// the set's previous checkpoint write was still in flight: the seal
	// waits for a later append, and the live log runs past CheckpointEvery.
	mWALSealsDeferred = obs.Default.Counter("serve.wal.seals_deferred")
	mWALRecSets       = obs.Default.Counter("serve.wal.recovered_sets")
	mWALRecBlocks     = obs.Default.Counter("serve.wal.recovery_blocks")
	mWALRecMS         = obs.Default.Gauge("serve.wal.recovery_ms")
	// mWALReplayConflicts counts replayed WAL lines whose apply stopped at
	// a conflicting block.
	mWALReplayConflicts = obs.Default.Counter("serve.wal.replay_conflicts")
)

// fsyncPolicy is a parsed Config.StreamFsync.
type fsyncPolicy int

const (
	// fsyncBatch syncs every walBatchSyncEvery appends and at checkpoints —
	// the default: bounded data loss on an OS crash, far fewer syncs.
	fsyncBatch fsyncPolicy = iota
	// fsyncAlways syncs after every appended batch: a batch acknowledged
	// with 200 survives even an OS-level crash.
	fsyncAlways
	// fsyncOff never syncs; the OS flushes on its own schedule. A process
	// kill still loses nothing (the page cache survives), only a machine
	// crash can.
	fsyncOff
)

const (
	walBatchSyncEvery      = 16
	defaultCheckpointEvery = 256
	defaultMaxIngestBytes  = 8 << 20
	walSuffix              = ".wal"
	ckptSuffix             = ".ckpt"
)

func parseFsyncPolicy(s string) (fsyncPolicy, error) {
	switch s {
	case "", "batch":
		return fsyncBatch, nil
	case "always":
		return fsyncAlways, nil
	case "off":
		return fsyncOff, nil
	default:
		return 0, fmt.Errorf("serve: unknown stream fsync policy %q (always, batch, off)", s)
	}
}

// validStreamName reports whether a dataset name is safe to use as a WAL
// file stem: [A-Za-z0-9._-]+, not starting with a dot. Enforced only when
// durable streaming is enabled — in-memory sets accept any non-empty name.
func validStreamName(name string) bool {
	if name == "" || len(name) > 128 || name[0] == '.' {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '-':
		default:
			return false
		}
	}
	return true
}

// fnv64a hashes a set name into the faults-injector label space.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// A durable set's files in the stream directory (DESIGN.md §13):
//
//	<set>.wal       the live log: the accepted batches since the newest seal
//	<set>.wal.<g>   sealed generation g ≥ 1: the live log as the g-th seal left it
//	<set>.ckpt.<g>  a checkpoint ("wal_gen": g) covering every generation ≤ g
//
// ckptWrite.run, the background write a seal starts, is the only writer of
// checkpoints. Only a seal and recovery delete files, the one under the
// set's mu and the other with exclusive access at boot, and each deletes
// only what a checkpoint already written in full covers. So the directory
// is a valid crash state at every instant, and so is a file-by-file copy of
// it taken while no ingest is in flight.

// setWAL is one streaming set's write-ahead log: JSONL files of accepted
// ingest bodies, one line each as the handler received them — the wire
// format cmd/streamfeed replays — cut into sealed generations, plus the
// checkpoints that cover them. Every method runs under the owning set's mu
// (or with exclusive access at boot) except ckptWrite.run, the background
// checkpoint write, which only creates and writes its own checkpoint file.
type setWAL struct {
	name   string
	dir    string
	policy fsyncPolicy
	every  int
	inj    *faults.WALInjector
	f      *os.File
	// lines counts the live log's lines; unsynced counts appends since the
	// last fsync (batch policy).
	lines    int
	unsynced int
	// broken marks an injected (or real) append failure: the "process" died
	// mid-write, so the log refuses further appends until restart. Live
	// requests see 503 and the observer re-ships after recovery.
	broken bool
	// gen is the newest sealed generation, 0 before the first seal.
	// published is the newest checkpoint generation written in full, and
	// cleaned the newest whose covered files are already deleted.
	gen, published, cleaned int64
	// pending is the background checkpoint write in flight, if any.
	pending *ckptWrite
}

// newWAL describes the named set's log without touching the directory.
func (s *Server) newWAL(name string) *setWAL {
	w := &setWAL{
		name:   name,
		dir:    s.cfg.StreamDir,
		policy: s.fsync,
		every:  s.cfg.CheckpointEvery,
		inj:    s.plan.WAL(fnv64a(name)),
	}
	if w.every <= 0 {
		w.every = defaultCheckpointEvery
	}
	return w
}

func (w *setWAL) livePath() string { return filepath.Join(w.dir, w.name+walSuffix) }

func (w *setWAL) genPath(g int64) string { return w.livePath() + "." + strconv.FormatInt(g, 10) }

func (w *setWAL) ckptPath(g int64) string {
	return filepath.Join(w.dir, w.name+ckptSuffix+"."+strconv.FormatInt(g, 10))
}

// openWAL opens (creating if needed) the named set's live log for appends.
func (s *Server) openWAL(name string) (*setWAL, error) {
	w := s.newWAL(name)
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: stream dir: %w", err)
	}
	if err := w.openLive(); err != nil {
		return nil, fmt.Errorf("serve: wal %s: %w", name, err)
	}
	return w, nil
}

// openLive opens the live log for appends, creating it if needed. Under
// every policy but off it syncs the stream directory, so a log the open
// created keeps its directory entry across a power loss.
func (w *setWAL) openLive() error {
	f, err := os.OpenFile(w.livePath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := w.syncDir(); err != nil {
		f.Close()
		return fmt.Errorf("directory sync: %w", err)
	}
	w.f = f
	return nil
}

// appendRequest logs one accepted ingest body, write-ahead of its
// application, as one line (walLine, which rewrites body in place). A
// fault injector may tear the write (a prefix lands on disk) or crash it
// (nothing lands); either way the WAL marks itself broken and the caller
// answers 503 — the durable analogue of the process dying before it
// replied. When the append makes the log due for a checkpoint and no
// checkpoint write is in flight, it seals the log, and sealed reports it:
// the caller then captures the checkpoint after applying the batch, under
// the same hold of set.mu. A failed seal does not fail the batch, which is
// already logged.
func (w *setWAL) appendRequest(body []byte) (sealed bool, err error) {
	if w.broken {
		return false, fmt.Errorf("wal %s: unavailable after append failure; restart to recover", w.name)
	}
	line := walLine(body)
	if act := w.inj.Append(); act.Tear || act.Crash {
		w.broken = true
		if act.Tear {
			keep := int(act.KeepFrac * float64(len(line)))
			if keep > 0 {
				_, _ = w.f.Write(line[:keep])
			}
			return false, fmt.Errorf("wal %s: injected torn write (%d of %d bytes)", w.name, keep, len(line)+1)
		}
		return false, fmt.Errorf("wal %s: injected crash before append", w.name)
	}
	n, err := w.f.Write(append(line, '\n'))
	if err != nil {
		w.broken = true
		return false, fmt.Errorf("wal %s: append: %w", w.name, err)
	}
	w.lines++
	w.unsynced++
	mWALAppends.Inc()
	mWALBytes.Add(int64(n))
	switch w.policy {
	case fsyncAlways:
		err = w.sync()
	case fsyncBatch:
		if w.unsynced >= walBatchSyncEvery {
			err = w.sync()
		}
	}
	if err != nil {
		w.broken = true
		return false, fmt.Errorf("wal %s: fsync: %w", w.name, err)
	}
	if w.lines < w.every {
		return false, nil
	}
	if w.busy() {
		mWALSealsDeferred.Inc()
		return false, nil
	}
	if err := w.seal(); err != nil {
		log.Printf("serve: wal %s: seal: %v", w.name, err)
		return false, nil
	}
	return true, nil
}

func (w *setWAL) sync() error {
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.unsynced = 0
	mWALFsyncs.Inc()
	return nil
}

// syncDir fsyncs the stream directory, persisting the entries that creating
// a log, sealing one and writing a checkpoint add. A no-op under policy off.
func (w *setWAL) syncDir() error {
	if w.policy == fsyncOff {
		return nil
	}
	d, err := os.Open(w.dir)
	if err != nil {
		return err
	}
	defer d.Close() // opened only to sync; nothing written through it
	if err := d.Sync(); err != nil {
		return err
	}
	mWALFsyncs.Inc()
	return nil
}

// seal closes the live log as generation gen+1: it syncs the log (unless
// the policy is off), renames it to <set>.wal.<gen+1>, opens a fresh live
// log and syncs the directory (unless off) — so no batch acknowledged
// after the seal is appended to a file whose name a power loss could still
// take back — and then deletes what the newest published checkpoint
// covers. A failed rename leaves the live log as it was, to be sealed at a
// later append; any failure after it breaks the WAL, since its live log is
// gone.
func (w *setWAL) seal() error {
	if w.policy != fsyncOff && w.unsynced > 0 {
		if err := w.sync(); err != nil {
			w.broken = true
			return fmt.Errorf("pre-seal fsync: %w", err)
		}
	}
	if err := os.Rename(w.livePath(), w.genPath(w.gen+1)); err != nil {
		return err
	}
	w.gen++
	w.lines, w.unsynced = 0, 0
	err := w.f.Close()
	w.f = nil
	if err == nil {
		err = w.openLive()
	}
	if err != nil {
		w.broken = true
		return fmt.Errorf("open generation %d's successor: %w", w.gen, err)
	}
	w.clean()
	return nil
}

// clean deletes the files the newest published checkpoint covers: the
// sealed generations up to it and the checkpoints before it. It never
// deletes the published checkpoint itself or anything newer, so a crash at
// any point leaves a recoverable set. Losing a deletion to a crash is
// harmless: recovery deletes again.
func (w *setWAL) clean() {
	for g := w.cleaned; g < w.published; g++ {
		removeStale(w.genPath(g + 1))
		if g > 0 {
			removeStale(w.ckptPath(g))
		}
	}
	w.cleaned = w.published
}

// removeStale deletes a covered file, logging (not failing on) errors: a
// file left behind only costs disk until the next clean.
func removeStale(path string) {
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		log.Printf("serve: wal: remove %s: %v", path, err)
	}
}

// ckptWrite is one background checkpoint write: the state captured at a
// seal, written outside set.mu after the batch is acknowledged. done closes
// when it ends; err is its outcome, read only after done.
type ckptWrite struct {
	w    *setWAL
	gen  int64
	ck   *ckptState
	done chan struct{}
	err  error
}

// startWrite marks a write of ck in flight and returns it; the caller runs
// it once set.mu is released. At most one write is in flight per set, as
// appendRequest seals only when busy reports none. Caller holds set.mu.
func (w *setWAL) startWrite(ck *ckptState) *ckptWrite {
	w.pending = &ckptWrite{w: w, gen: ck.gen, ck: ck, done: make(chan struct{})}
	return w.pending
}

// run encodes and writes the checkpoint. It reads only the captured state
// and the setWAL's immutable fields, and drops the state when done: a set
// that goes idle keeps its finished write until its next append.
func (c *ckptWrite) run() {
	defer close(c.done)
	if c.err = c.w.persist(c.ck); c.err != nil {
		log.Printf("serve: checkpoint %s: %v", c.w.name, c.err)
	}
	c.ck = nil
}

// busy reports whether a background checkpoint write is in flight; a
// finished one's outcome is folded into published. Caller holds set.mu.
func (w *setWAL) busy() bool {
	if w.pending == nil {
		return false
	}
	select {
	case <-w.pending.done:
	default:
		return true
	}
	w.settle()
	return false
}

// wait blocks until the in-flight checkpoint write, if any, has ended.
// Caller holds set.mu.
func (w *setWAL) wait() {
	if w.pending != nil {
		<-w.pending.done
		w.settle()
	}
}

// settle folds the ended write's outcome into published.
func (w *setWAL) settle() {
	if w.pending.err == nil && w.pending.gen > w.published {
		w.published = w.pending.gen
	}
	w.pending = nil
}

// persist writes ck as <set>.ckpt.<gen>: create, encode straight into the
// file, fsync, close and sync the directory (no syncs under policy off).
// It neither renames nor deletes: a write cut short leaves a file recovery
// cannot parse and skips, and the generations it would have covered are
// still on disk, because clean deletes only what a finished write covers.
func (w *setWAL) persist(ck *ckptState) error {
	f, err := os.OpenFile(w.ckptPath(ck.gen), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal %s: checkpoint: %w", w.name, err)
	}
	bw := bufio.NewWriterSize(f, 256<<10)
	if err := ck.encodeTo(bw); err != nil {
		f.Close()
		return fmt.Errorf("wal %s: checkpoint write: %w", w.name, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("wal %s: checkpoint write: %w", w.name, err)
	}
	if w.policy != fsyncOff {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal %s: checkpoint fsync: %w", w.name, err)
		}
		mWALFsyncs.Inc()
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal %s: checkpoint close: %w", w.name, err)
	}
	if err := w.syncDir(); err != nil {
		return fmt.Errorf("wal %s: checkpoint directory sync: %w", w.name, err)
	}
	mWALCheckpoints.Inc()
	return nil
}

// close waits for the in-flight checkpoint write, then syncs (unless the
// log is broken or the policy is off) and closes the live log. Caller holds
// set.mu.
func (w *setWAL) close() error {
	w.wait()
	if w.f == nil {
		return nil
	}
	var err error
	if !w.broken && w.policy != fsyncOff && w.unsynced > 0 {
		err = w.sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// ---- checkpoint format ----

// walCheckpoint is the serialized restore state of one streaming set: the
// retained block window as ingest frames plus every cumulative aggregate
// retention compaction folds (DESIGN.md §13). Map-backed state is flattened
// into sorted slices so checkpoint bytes are deterministic.
type walCheckpoint struct {
	API     string `json:"api"`
	Dataset string `json:"dataset"`
	// WALGen is the newest sealed generation the checkpoint covers: recovery
	// replays only the generations above it, then the live log.
	WALGen      int64         `json:"wal_gen,omitempty"`
	Fingerprint string        `json:"fingerprint"`
	Retain      int           `json:"retain"`
	Ingested    int64         `json:"ingested"`
	Dropped     int           `json:"dropped"`
	Appends     int64         `json:"appends"`
	Snapshots   int64         `json:"snapshots"`
	LastHeight  int64         `json:"last_height"`
	Txs         int64         `json:"txs"`
	Blocks      []BlockFrame  `json:"blocks"`
	FirstSeen   []ckptSeen    `json:"first_seen,omitempty"`
	SourceSeen  []ckptSrcSeen `json:"source_seen,omitempty"`
	Sources     []string      `json:"sources,omitempty"`
	Shares      []ckptShare   `json:"shares,omitempty"`
	RewardAddrs []ckptAddrs   `json:"reward_addrs,omitempty"`
	Owners      []ckptOwner   `json:"owners,omitempty"`
	SelfSets    []ckptSelfSet `json:"self_sets,omitempty"`
}

type ckptSeen struct {
	ID string `json:"id"`
	NS int64  `json:"ns"`
}

// ckptSrcSeen is one transaction's per-source arrival row, flattened into
// sorted (source, ns) pairs. Both fields are omitempty at the checkpoint
// level, so v1 streams (no attribution) keep their checkpoint bytes.
type ckptSrcSeen struct {
	ID      string   `json:"id"`
	Sources []string `json:"sources"`
	NS      []int64  `json:"ns"`
}

type ckptShare struct {
	Pool   string `json:"pool"`
	Blocks int    `json:"blocks"`
	Txs    int64  `json:"txs"`
}

type ckptAddrs struct {
	Pool  string   `json:"pool"`
	Addrs []string `json:"addrs"`
}

type ckptOwner struct {
	Addr string `json:"addr"`
	Pool string `json:"pool"`
}

type ckptSelfSet struct {
	Pool string   `json:"pool"`
	IDs  []string `json:"ids"`
}

// ckptState is a checkpoint captured under set.mu at a seal: the scalar
// aggregates, and copies of what the lists are rendered from — the retained
// blocks, the arrival ledger and the attribution maps, flattened into
// slices but not yet sorted. Blocks are immutable once applied, so sharing
// their pointers is safe; the ledger and the shares are copied because
// later appends and snapshots update them in place.
type ckptState struct {
	gen         int64
	head        walCheckpoint // the scalar fields; every list is empty
	blocks      []*chain.Block
	seen        *index.Ledger
	shares      []poolid.Share
	rewardAddrs []ckptAddrs
	owners      []ckptOwner
	selfSets    []ckptSelfIDs
}

// ckptSelfIDs is one pool's self-interest set as captured: IDs unformatted
// and unsorted until the writer renders them.
type ckptSelfIDs struct {
	pool string
	ids  []chain.TxID
}

// captureCheckpoint copies the set's restore state for generation gen's
// checkpoint. It only copies — the ledger as a clone of its flat arrays
// and its pointer-free map, not row by row, and each map as an unsorted
// slice; encodeTo sorts and renders outside the lock. Caller holds set.mu.
func captureCheckpoint(set *auditSet, gen int64) *ckptState {
	st := set.stream.State()
	snap := set.stream.Index().Snapshot()
	c := &ckptState{
		gen: gen,
		head: walCheckpoint{
			API:         API,
			Dataset:     set.name,
			WALGen:      gen,
			Fingerprint: st.Fingerprint,
			Retain:      set.stream.Index().Retention(),
			Ingested:    snap.Ingested,
			Dropped:     snap.Dropped,
			Appends:     st.Appends,
			Snapshots:   st.Snapshots,
			LastHeight:  st.LastHeight,
			Txs:         st.Txs,
		},
		blocks:      snap.Blocks,
		seen:        snap.Seen.Clone(),
		shares:      slices.Clone(snap.Shares),
		rewardAddrs: make([]ckptAddrs, 0, len(snap.RewardAddrs)),
		owners:      make([]ckptOwner, 0, len(snap.Owners)),
		selfSets:    make([]ckptSelfIDs, 0, len(snap.SelfSets)),
	}
	for pool, addrs := range snap.RewardAddrs {
		e := ckptAddrs{Pool: pool}
		for a := range addrs {
			e.Addrs = append(e.Addrs, string(a))
		}
		c.rewardAddrs = append(c.rewardAddrs, e)
	}
	for a, pool := range snap.Owners {
		c.owners = append(c.owners, ckptOwner{Addr: string(a), Pool: pool})
	}
	for pool, ids := range snap.SelfSets {
		e := ckptSelfIDs{pool: pool}
		for id := range ids {
			e.ids = append(e.ids, id)
		}
		c.selfSets = append(c.selfSets, e)
	}
	return c
}

// restoreCheckpoint rebuilds a streaming set from its checkpoint: retained
// blocks re-ingest through the normal index path and cumulative aggregates
// restore wholesale.
func (s *Server) restoreCheckpoint(ck *walCheckpoint) (*auditSet, error) {
	st := index.RestoreState{
		Ingested: ck.Ingested,
		Dropped:  ck.Dropped,
	}
	for i := range ck.Blocks {
		b, err := buildFrameBlock(&ck.Blocks[i])
		if err != nil {
			return nil, fmt.Errorf("checkpoint block: %w", err)
		}
		st.Blocks = append(st.Blocks, b)
	}
	// The ledger fills straight from the rows; a later row for the same
	// transaction replaces an earlier one.
	st.Seen = &index.Ledger{}
	st.Seen.AddSources(ck.Sources...)
	for _, e := range ck.FirstSeen {
		id, err := parseTxID(e.ID)
		if err != nil {
			return nil, fmt.Errorf("checkpoint first-seen: %w", err)
		}
		st.Seen.SetFirstSeen(id, e.NS)
	}
	for _, e := range ck.SourceSeen {
		id, err := parseTxID(e.ID)
		if err != nil {
			return nil, fmt.Errorf("checkpoint source-seen: %w", err)
		}
		if len(e.NS) != len(e.Sources) {
			return nil, fmt.Errorf("checkpoint source-seen %s: %d sources, %d times", e.ID, len(e.Sources), len(e.NS))
		}
		st.Seen.SetArrivals(id, e.Sources, e.NS)
	}
	for _, e := range ck.Shares {
		st.Shares = append(st.Shares, poolid.Share{Pool: e.Pool, Blocks: e.Blocks, Txs: e.Txs})
	}
	st.RewardAddrs = make(map[string]map[chain.Address]bool, len(ck.RewardAddrs))
	for _, e := range ck.RewardAddrs {
		set := make(map[chain.Address]bool, len(e.Addrs))
		for _, a := range e.Addrs {
			set[chain.Address(a)] = true
		}
		st.RewardAddrs[e.Pool] = set
	}
	st.Owners = make(map[chain.Address]string, len(ck.Owners))
	for _, e := range ck.Owners {
		st.Owners[chain.Address(e.Addr)] = e.Pool
	}
	st.SelfSets = make(map[string]map[chain.TxID]bool, len(ck.SelfSets))
	for _, e := range ck.SelfSets {
		ids := make(map[chain.TxID]bool, len(e.IDs))
		for _, raw := range e.IDs {
			id, err := parseTxID(raw)
			if err != nil {
				return nil, fmt.Errorf("checkpoint self-set: %w", err)
			}
			ids[id] = true
		}
		st.SelfSets[e.Pool] = ids
	}
	ix, err := stream.RestoreIndex(st, ck.Retain)
	if err != nil {
		return nil, err
	}
	return newStreamSet(ck.Dataset, stream.Restore(ix, stream.State{
		Fingerprint: ck.Fingerprint,
		Appends:     ck.Appends,
		Snapshots:   ck.Snapshots,
		LastHeight:  ck.LastHeight,
		Txs:         ck.Txs,
	}, s.now)), nil
}

// ---- recovery ----

// recoveryInfo describes one set's boot-time recovery (healthz).
type recoveryInfo struct {
	// CheckpointBlocks is the retained window size restored from the
	// checkpoint; WALLines and WALBlocks count the replayed log suffix.
	CheckpointBlocks int `json:"checkpoint_blocks"`
	WALLines         int `json:"wal_lines"`
	WALBlocks        int `json:"wal_blocks"`
	// Truncated reports a torn final line was cut off (truncate-and-warn).
	Truncated bool    `json:"truncated"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// walEntry is one line read back from a WAL file.
type walEntry struct {
	line []byte
	off  int64 // byte offset of the line start, for tail truncation
}

func readWALEntries(path string) ([]walEntry, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []walEntry
	off := int64(0)
	for len(raw) > 0 {
		i := bytes.IndexByte(raw, '\n')
		line, next := raw, len(raw)
		if i >= 0 {
			line, next = raw[:i], i+1
		}
		if len(bytes.TrimSpace(line)) > 0 {
			out = append(out, walEntry{line: line, off: off})
		}
		off += int64(next)
		raw = raw[next:]
	}
	return out, nil
}

// streamFiles is what the stream directory holds for one set.
type streamFiles struct {
	live  bool
	gens  []int64 // sealed generations
	ckpts []int64 // checkpoint generations
}

// scanStreamDir groups the stream directory's files by set. A name maps to
// one set and role only: a generation suffix is a canonical positive
// integer after the last dot, and the role suffix comes before it. A
// checkpoint with no generation, <set>.ckpt, is from the layout before
// sealed generations: it covers a prefix of a log this version cannot
// tell apart, so it fails the scan rather than being skipped, which would
// silently drop that prefix.
func scanStreamDir(dir string) (map[string]*streamFiles, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	sets := make(map[string]*streamFiles)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name, gen := e.Name(), int64(0)
		if i := strings.LastIndexByte(name, '.'); i >= 0 {
			if g, err := strconv.ParseInt(name[i+1:], 10, 64); err == nil && g > 0 && strconv.FormatInt(g, 10) == name[i+1:] {
				name, gen = name[:i], g
			}
		}
		var set string
		var add func(*streamFiles)
		switch {
		case strings.HasSuffix(name, walSuffix):
			set = strings.TrimSuffix(name, walSuffix)
			if gen > 0 {
				add = func(f *streamFiles) { f.gens = append(f.gens, gen) }
			} else {
				add = func(f *streamFiles) { f.live = true }
			}
		case strings.HasSuffix(name, ckptSuffix):
			set = strings.TrimSuffix(name, ckptSuffix)
			add = func(f *streamFiles) { f.ckpts = append(f.ckpts, gen) }
		default:
			continue // unrelated files
		}
		if !validStreamName(set) {
			continue
		}
		if gen == 0 && strings.HasSuffix(name, ckptSuffix) {
			return nil, fmt.Errorf("%s: checkpoint without a WAL generation, from before sealed generations; this version cannot recover it", filepath.Join(dir, e.Name()))
		}
		if sets[set] == nil {
			sets[set] = &streamFiles{}
		}
		add(sets[set])
	}
	return sets, nil
}

// recoverStreams rebuilds every streaming set found in Config.StreamDir:
// checkpoint restore, then replay of the newer generations and the live
// log through the ingest apply path, tolerating a torn final line of the
// live log (truncate-and-warn, never crash). Recovery writes no checkpoint:
// the set's next seal checkpoints everything it replayed.
func (s *Server) recoverStreams() error {
	if err := os.MkdirAll(s.cfg.StreamDir, 0o755); err != nil {
		return fmt.Errorf("serve: stream dir: %w", err)
	}
	sets, err := scanStreamDir(s.cfg.StreamDir)
	if err != nil {
		return fmt.Errorf("serve: stream dir: %w", err)
	}
	names := make([]string, 0, len(sets))
	for name := range sets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := s.recoverStreamSet(name, sets[name]); err != nil {
			return fmt.Errorf("serve: recover stream %q: %w", name, err)
		}
	}
	return nil
}

// recoverStreamSet recovers one set from its files.
func (s *Server) recoverStreamSet(name string, files *streamFiles) error {
	t := startTimer()
	info := &recoveryInfo{}
	w := s.newWAL(name)
	sort.Slice(files.gens, func(i, j int) bool { return files.gens[i] < files.gens[j] })
	sort.Slice(files.ckpts, func(i, j int) bool { return files.ckpts[i] > files.ckpts[j] })
	ck, err := w.newestCheckpoint(files.ckpts)
	if err != nil {
		return err
	}
	var set *auditSet
	base := int64(0)
	if ck != nil {
		if ck.Dataset != name {
			return fmt.Errorf("checkpoint names dataset %q", ck.Dataset)
		}
		if set, err = s.restoreCheckpoint(ck); err != nil {
			return err
		}
		info.CheckpointBlocks = len(ck.Blocks)
		base = ck.WALGen
	} else {
		set = s.emptyStreamSet(name)
	}
	// The generations above the checkpoint, oldest first, then the live log.
	var gens []int64
	for _, g := range files.gens {
		if g <= base {
			continue
		}
		if want := base + int64(len(gens)) + 1; g != want {
			return fmt.Errorf("sealed generation %d is missing (checkpoint covers %d, next on disk is %d)", want, base, g)
		}
		gens = append(gens, g)
	}
	conflicts := 0
	var lastConflict error
	replay := func(path string, live bool, label string) (int, error) {
		lines, err := readWALEntries(path)
		if err != nil {
			return 0, err
		}
		for i, e := range lines {
			batch, perr := parseWALLine(name, e.line)
			if perr != nil {
				if live && i == len(lines)-1 {
					// Torn final line: the process died mid-append. The prefix
					// is unusable; cut it off and warn — the feeder saw no 200
					// for this batch and will re-ship it.
					log.Printf("serve: wal %s: truncating torn final line at byte %d: %v", name, e.off, perr)
					if terr := os.Truncate(path, e.off); terr != nil {
						return 0, fmt.Errorf("truncate torn tail: %w", terr)
					}
					info.Truncated = true
					mWALTruncations.Inc()
					return len(lines) - 1, nil
				}
				return 0, fmt.Errorf("%s line %d: %w", label, i+1, perr)
			}
			// Replay rides the live apply path. A line that stops at a
			// conflict is either the deterministic re-run of a 409 the live
			// stream already answered or a batch applied twice; the log does
			// not record which, so recovery counts and reports it rather
			// than failing.
			p, err := set.apply(batch)
			if err != nil {
				conflicts++
				lastConflict = err
				mWALReplayConflicts.Inc()
			}
			info.WALBlocks += p.Appended
			info.WALLines++
		}
		return len(lines), nil
	}
	for _, g := range gens {
		if _, err := replay(w.genPath(g), false, fmt.Sprintf("wal generation %d", g)); err != nil {
			return err
		}
	}
	liveLines, err := replay(w.livePath(), true, "wal")
	if err != nil {
		return err
	}
	if conflicts > 0 {
		log.Printf("serve: wal %s: %d of %d replayed lines stopped at a conflict (last: %v)", name, conflicts, info.WALLines, lastConflict)
	}
	if err := w.openLive(); err != nil {
		return fmt.Errorf("wal %s: %w", name, err)
	}
	set.wal = w
	// Number the next seal past every generation any file names, and delete
	// what the restored checkpoint covers, from the oldest file on disk.
	w.lines = liveLines
	w.gen = base + int64(len(gens))
	w.published, w.cleaned = base, base
	for _, g := range files.gens {
		w.gen = max(w.gen, g)
		w.cleaned = min(w.cleaned, g-1)
	}
	for _, g := range files.ckpts {
		w.gen = max(w.gen, g)
		w.cleaned = min(w.cleaned, g)
	}
	w.clean()
	info.ElapsedMS = t.ms()
	set.recovery = info
	mWALRecSets.Inc()
	mWALRecBlocks.Add(int64(info.CheckpointBlocks + info.WALBlocks))
	mWALRecMS.Set(info.ElapsedMS)
	if err := s.addSet(set); err != nil {
		return err
	}
	if s.defName == "" {
		s.defName = name
	}
	return nil
}

// newestCheckpoint reads the newest of the set's checkpoints (generations
// in descending order) that parses whole. A checkpoint that does not parse
// is a write that a crash, or a copy taken mid-write, cut short: it is
// skipped, and the generations it would have covered are still on disk.
func (w *setWAL) newestCheckpoint(gens []int64) (*walCheckpoint, error) {
	for _, g := range gens {
		path := w.ckptPath(g)
		raw, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var ck walCheckpoint
		if err := ck.UnmarshalJSON(raw); err != nil {
			log.Printf("serve: wal %s: skipping unfinished checkpoint %s: %v", w.name, filepath.Base(path), err)
			continue
		}
		if ck.WALGen != g {
			return nil, fmt.Errorf("checkpoint %s records generation %d", filepath.Base(path), ck.WALGen)
		}
		return &ck, nil
	}
	return nil, nil
}

// walLine makes a parsed ingest body its WAL line, in place: trailing
// whitespace cut, and every newline turned into a space. A body that parsed
// holds a newline only as whitespace between tokens (JSON strings cannot
// hold a raw one), so the line parses to the same request; and since the
// line ends with the value's last byte, no prefix of it parses, which is
// how recovery tells a torn final line.
func walLine(body []byte) []byte {
	line := bytes.TrimRight(body, " \t\r\n")
	for rest := line; ; {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			return line
		}
		rest[i] = ' '
		rest = rest[i+1:]
	}
}

// parseWALLine decodes one logged ingest body into the batch it applies.
func parseWALLine(name string, line []byte) (*stream.Batch, error) {
	var req IngestRequest
	if err := req.UnmarshalJSON(line); err != nil {
		return nil, err
	}
	if req.Dataset != name {
		return nil, fmt.Errorf("logged dataset %q does not match wal %q", req.Dataset, name)
	}
	return DecodeBatch(&req)
}

// Close waits for every durable streaming set's checkpoint write and syncs
// and closes its WAL. It writes no checkpoint, so a graceful stop leaves
// the same kind of directory a kill does, and the next boot recovers both
// the same way.
func (s *Server) Close() error {
	s.setsMu.RLock()
	sets := make([]*auditSet, 0, len(s.order))
	for _, name := range s.order {
		sets = append(sets, s.sets[name])
	}
	s.setsMu.RUnlock()
	var first error
	for _, set := range sets {
		if set.stream == nil || set.wal == nil {
			continue
		}
		set.mu.Lock()
		//lint:allow lockheld shutdown quiescence invariant: the log must close with no append mid-write and no checkpoint write still in flight, and set.mu is what orders both against ingest, so the wait for the set's background write and the final sync run under it
		err := set.wal.close()
		set.mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}
