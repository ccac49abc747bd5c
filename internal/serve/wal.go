package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

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
	mWALRecSets     = obs.Default.Counter("serve.wal.recovered_sets")
	mWALRecBlocks   = obs.Default.Counter("serve.wal.recovery_blocks")
	mWALRecMS       = obs.Default.Gauge("serve.wal.recovery_ms")
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

// setWAL is one streaming set's write-ahead log: a JSONL file of accepted
// IngestRequest lines — the exact wire format cmd/streamfeed replays —
// plus a checkpoint file that compacts the log. All methods are called
// under the owning set's mu.
type setWAL struct {
	name    string
	walPath string
	ckPath  string
	policy  fsyncPolicy
	every   int
	inj     *faults.WALInjector
	f       *os.File
	// lines counts the WAL lines not yet covered by a checkpoint; unsynced
	// counts appends since the last fsync (batch policy).
	lines    int
	unsynced int
	// broken marks an injected (or real) append failure: the "process" died
	// mid-write, so the log refuses further appends until restart. Live
	// requests see 503 and the observer re-ships after recovery.
	broken bool
}

// openWAL opens (creating if needed) the named set's log for appends. Under
// every policy but off it syncs the stream directory, so a log the open
// created keeps its directory entry across a power loss.
func (s *Server) openWAL(name string) (*setWAL, error) {
	w := &setWAL{
		name:    name,
		walPath: filepath.Join(s.cfg.StreamDir, name+walSuffix),
		ckPath:  filepath.Join(s.cfg.StreamDir, name+ckptSuffix),
		policy:  s.fsync,
		every:   s.cfg.CheckpointEvery,
		inj:     s.plan.WAL(fnv64a(name)),
	}
	if w.every <= 0 {
		w.every = defaultCheckpointEvery
	}
	if err := os.MkdirAll(s.cfg.StreamDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: stream dir: %w", err)
	}
	f, err := os.OpenFile(w.walPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: wal %s: %w", name, err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, fmt.Errorf("serve: wal %s: %w", name, err)
	}
	if err := w.syncDir(); err != nil {
		f.Close()
		return nil, fmt.Errorf("serve: wal %s: directory sync: %w", name, err)
	}
	w.f = f
	return w, nil
}

// appendRequest logs one accepted ingest batch, write-ahead of its
// application. A fault injector may tear the write (a prefix lands on disk)
// or crash it (nothing lands); either way the WAL marks itself broken and
// the caller answers 503 — the durable analogue of the process dying before
// it replied.
func (w *setWAL) appendRequest(req *IngestRequest) error {
	if w.broken {
		return fmt.Errorf("wal %s: unavailable after append failure; restart to recover", w.name)
	}
	line, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("wal %s: marshal: %w", w.name, err)
	}
	if act := w.inj.Append(); act.Tear || act.Crash {
		w.broken = true
		if act.Tear {
			keep := int(act.KeepFrac * float64(len(line)))
			if keep > 0 {
				_, _ = w.f.Write(line[:keep])
			}
			return fmt.Errorf("wal %s: injected torn write (%d of %d bytes)", w.name, keep, len(line)+1)
		}
		return fmt.Errorf("wal %s: injected crash before append", w.name)
	}
	n, err := w.f.Write(append(line, '\n'))
	if err != nil {
		w.broken = true
		return fmt.Errorf("wal %s: append: %w", w.name, err)
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
		return fmt.Errorf("wal %s: fsync: %w", w.name, err)
	}
	return nil
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
// the log and renaming a checkpoint in changed. A no-op under policy off.
func (w *setWAL) syncDir() error {
	if w.policy == fsyncOff {
		return nil
	}
	d, err := os.Open(filepath.Dir(w.walPath))
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

// due reports whether enough batches accumulated to warrant a checkpoint.
func (w *setWAL) due() bool { return w.lines >= w.every }

// writeCheckpoint atomically persists the checkpoint and compacts the log.
// The sequence is crash-safe at every step: (1) the checkpoint lands via
// tmp+rename recording how many WAL lines it covers, (2) the covered lines
// are truncated away, (3) the checkpoint is rewritten with zero covered
// lines. Recovery skips min(covered, present) lines, which is exact in
// every crash window — and appends only resume after step 3, so a growing
// WAL always pairs with a zero-coverage checkpoint. Unless the policy is
// off, the truncate is synced before step 3 publishes, so the zero-coverage
// checkpoint never lands beside covered lines the truncate did not persist.
func (w *setWAL) writeCheckpoint(ck *walCheckpoint) error {
	if w.broken {
		return fmt.Errorf("wal %s: broken; checkpoint refused", w.name)
	}
	if w.policy != fsyncOff && w.unsynced > 0 {
		if err := w.sync(); err != nil {
			return fmt.Errorf("wal %s: pre-checkpoint fsync: %w", w.name, err)
		}
	}
	ck.WALLines = w.lines
	if err := w.persistCheckpoint(ck); err != nil {
		return err
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("wal %s: truncate: %w", w.name, err)
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		return fmt.Errorf("wal %s: rewind: %w", w.name, err)
	}
	if w.policy != fsyncOff {
		if err := w.sync(); err != nil {
			return fmt.Errorf("wal %s: truncate fsync: %w", w.name, err)
		}
	}
	w.lines = 0
	w.unsynced = 0
	ck.WALLines = 0
	if err := w.persistCheckpoint(ck); err != nil {
		return err
	}
	mWALCheckpoints.Inc()
	return nil
}

// persistCheckpoint writes the checkpoint file atomically (tmp + fsync +
// rename + directory fsync), so a crash never leaves a half-written
// checkpoint behind and a synced rename survives a power loss.
func (w *setWAL) persistCheckpoint(ck *walCheckpoint) error {
	raw, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("wal %s: marshal checkpoint: %w", w.name, err)
	}
	tmp := w.ckPath + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal %s: checkpoint tmp: %w", w.name, err)
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
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
	if err := os.Rename(tmp, w.ckPath); err != nil {
		return fmt.Errorf("wal %s: checkpoint rename: %w", w.name, err)
	}
	if err := w.syncDir(); err != nil {
		return fmt.Errorf("wal %s: checkpoint directory sync: %w", w.name, err)
	}
	return nil
}

func (w *setWAL) close() error {
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
	// WALLines is how many lines of the set's WAL this checkpoint already
	// covers; recovery replays only the suffix past them.
	WALLines    int           `json:"wal_lines"`
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

// buildCheckpoint captures the set's restore state. Caller holds set.mu.
func buildCheckpoint(set *auditSet) *walCheckpoint {
	st := set.stream.State()
	snap := set.stream.Index().Snapshot()
	ck := &walCheckpoint{
		API:         API,
		Dataset:     set.name,
		Fingerprint: st.Fingerprint,
		Retain:      set.stream.Index().Retention(),
		Ingested:    snap.Ingested,
		Dropped:     snap.Dropped,
		Appends:     st.Appends,
		Snapshots:   st.Snapshots,
		LastHeight:  st.LastHeight,
		Txs:         st.Txs,
		Blocks:      make([]BlockFrame, 0, len(snap.Blocks)),
	}
	for _, b := range snap.Blocks {
		ck.Blocks = append(ck.Blocks, FrameBlock(b))
	}
	for id, t := range snap.FirstSeen {
		ck.FirstSeen = append(ck.FirstSeen, ckptSeen{ID: id.String(), NS: t.UnixNano()})
	}
	sort.Slice(ck.FirstSeen, func(i, j int) bool { return ck.FirstSeen[i].ID < ck.FirstSeen[j].ID })
	for id, bySrc := range snap.SourceSeen {
		e := ckptSrcSeen{ID: id.String()}
		for src := range bySrc {
			e.Sources = append(e.Sources, src)
		}
		sort.Strings(e.Sources)
		for _, src := range e.Sources {
			e.NS = append(e.NS, bySrc[src].UnixNano())
		}
		ck.SourceSeen = append(ck.SourceSeen, e)
	}
	sort.Slice(ck.SourceSeen, func(i, j int) bool { return ck.SourceSeen[i].ID < ck.SourceSeen[j].ID })
	ck.Sources = snap.Sources
	for _, s := range snap.Shares {
		ck.Shares = append(ck.Shares, ckptShare{Pool: s.Pool, Blocks: s.Blocks, Txs: s.Txs})
	}
	for pool, set := range snap.RewardAddrs {
		e := ckptAddrs{Pool: pool}
		for a := range set {
			e.Addrs = append(e.Addrs, string(a))
		}
		sort.Strings(e.Addrs)
		ck.RewardAddrs = append(ck.RewardAddrs, e)
	}
	sort.Slice(ck.RewardAddrs, func(i, j int) bool { return ck.RewardAddrs[i].Pool < ck.RewardAddrs[j].Pool })
	for a, pool := range snap.Owners {
		ck.Owners = append(ck.Owners, ckptOwner{Addr: string(a), Pool: pool})
	}
	sort.Slice(ck.Owners, func(i, j int) bool { return ck.Owners[i].Addr < ck.Owners[j].Addr })
	for pool, ids := range snap.SelfSets {
		e := ckptSelfSet{Pool: pool}
		for id := range ids {
			e.IDs = append(e.IDs, id.String())
		}
		sort.Strings(e.IDs)
		ck.SelfSets = append(ck.SelfSets, e)
	}
	sort.Slice(ck.SelfSets, func(i, j int) bool { return ck.SelfSets[i].Pool < ck.SelfSets[j].Pool })
	return ck
}

// restoreCheckpoint rebuilds a streaming set from its checkpoint: retained
// blocks re-ingest through the normal index path and cumulative aggregates
// restore wholesale. Checkpoints written before audits read only the index
// may also carry win_snapshots, last_tip, and tip_seen; nothing reads them,
// so decoding ignores them.
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
	if len(ck.FirstSeen) > 0 {
		st.FirstSeen = make(map[chain.TxID]time.Time, len(ck.FirstSeen))
		for _, e := range ck.FirstSeen {
			id, err := parseTxID(e.ID)
			if err != nil {
				return nil, fmt.Errorf("checkpoint first-seen: %w", err)
			}
			st.FirstSeen[id] = time.Unix(0, e.NS)
		}
	}
	if len(ck.SourceSeen) > 0 {
		st.SourceSeen = make(map[chain.TxID]map[string]time.Time, len(ck.SourceSeen))
		for _, e := range ck.SourceSeen {
			id, err := parseTxID(e.ID)
			if err != nil {
				return nil, fmt.Errorf("checkpoint source-seen: %w", err)
			}
			if len(e.NS) != len(e.Sources) {
				return nil, fmt.Errorf("checkpoint source-seen %s: %d sources, %d times", e.ID, len(e.Sources), len(e.NS))
			}
			bySrc := make(map[string]time.Time, len(e.Sources))
			for i, src := range e.Sources {
				bySrc[src] = time.Unix(0, e.NS[i])
			}
			st.SourceSeen[id] = bySrc
		}
	}
	st.Sources = ck.Sources
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

func readCheckpoint(path string) (*walCheckpoint, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ck walCheckpoint
	if err := json.Unmarshal(raw, &ck); err != nil {
		return nil, fmt.Errorf("parse checkpoint: %w", err)
	}
	return &ck, nil
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

// recoverStreams rebuilds every streaming set found in Config.StreamDir:
// checkpoint restore, then WAL-suffix replay through the ingest apply path,
// tolerating a torn final line (truncate-and-warn, never crash). Each
// recovered set finishes with a fresh checkpoint, so the next boot replays
// nothing that this one already folded.
func (s *Server) recoverStreams() error {
	if err := os.MkdirAll(s.cfg.StreamDir, 0o755); err != nil {
		return fmt.Errorf("serve: stream dir: %w", err)
	}
	entries, err := os.ReadDir(s.cfg.StreamDir)
	if err != nil {
		return fmt.Errorf("serve: stream dir: %w", err)
	}
	seen := make(map[string]bool)
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		switch {
		case strings.HasSuffix(name, walSuffix):
			name = strings.TrimSuffix(name, walSuffix)
		case strings.HasSuffix(name, ckptSuffix):
			name = strings.TrimSuffix(name, ckptSuffix)
		default:
			continue // leftovers (.ckpt.tmp) and unrelated files
		}
		if validStreamName(name) && !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if err := s.recoverStreamSet(name); err != nil {
			return fmt.Errorf("serve: recover stream %q: %w", name, err)
		}
	}
	return nil
}

// recoverStreamSet recovers one set from its checkpoint + WAL pair.
func (s *Server) recoverStreamSet(name string) error {
	t := startTimer()
	info := &recoveryInfo{}
	walPath := filepath.Join(s.cfg.StreamDir, name+walSuffix)
	ck, err := readCheckpoint(filepath.Join(s.cfg.StreamDir, name+ckptSuffix))
	if err != nil {
		return err
	}
	var set *auditSet
	skip := 0
	if ck != nil {
		if ck.Dataset != name {
			return fmt.Errorf("checkpoint names dataset %q", ck.Dataset)
		}
		if set, err = s.restoreCheckpoint(ck); err != nil {
			return err
		}
		info.CheckpointBlocks = len(ck.Blocks)
		skip = ck.WALLines
	} else {
		set = s.emptyStreamSet(name)
	}
	lines, err := readWALEntries(walPath)
	if err != nil {
		return err
	}
	if skip > len(lines) {
		// The checkpoint covers lines a crash mid-compaction already
		// truncated; the state is complete without them.
		skip = len(lines)
	}
	conflicts := 0
	var lastConflict error
	for i, e := range lines[skip:] {
		batch, perr := parseWALLine(name, e.line)
		if perr != nil {
			if skip+i == len(lines)-1 {
				// Torn final line: the process died mid-append. The prefix
				// is unusable; cut it off and warn — the feeder saw no 200
				// for this batch and will re-ship it.
				log.Printf("serve: wal %s: truncating torn final line at byte %d: %v", name, e.off, perr)
				if terr := os.Truncate(walPath, e.off); terr != nil {
					return fmt.Errorf("truncate torn tail: %w", terr)
				}
				info.Truncated = true
				mWALTruncations.Inc()
				break
			}
			return fmt.Errorf("wal line %d: %w", skip+i+1, perr)
		}
		// Replay rides the live apply path. A line that stops at a conflict
		// is either the deterministic re-run of a 409 the live stream
		// already answered or a batch applied twice; the log does not record
		// which, so recovery counts and reports it rather than failing.
		p, err := set.apply(batch)
		if err != nil {
			conflicts++
			lastConflict = err
			mWALReplayConflicts.Inc()
		}
		info.WALBlocks += p.Appended
		info.WALLines++
	}
	if conflicts > 0 {
		log.Printf("serve: wal %s: %d of %d replayed lines stopped at a conflict (last: %v)", name, conflicts, info.WALLines, lastConflict)
	}
	w, err := s.openWAL(name)
	if err != nil {
		return err
	}
	// The surviving file contents are exactly the skipped prefix plus the
	// replayed suffix — all folded into the state we checkpoint next.
	w.lines = skip + info.WALLines
	set.wal = w
	if err := s.checkpointSet(set); err != nil {
		return err
	}
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

// parseWALLine decodes one logged IngestRequest into the batch it applies.
func parseWALLine(name string, line []byte) (*stream.Batch, error) {
	var req IngestRequest
	if err := json.Unmarshal(line, &req); err != nil {
		return nil, err
	}
	if req.Dataset != name {
		return nil, fmt.Errorf("logged dataset %q does not match wal %q", req.Dataset, name)
	}
	return DecodeBatch(&req)
}

// checkpointSet compacts one set's WAL into a fresh checkpoint. Caller
// holds set.mu (or has exclusive access during boot).
func (s *Server) checkpointSet(set *auditSet) error {
	return set.wal.writeCheckpoint(buildCheckpoint(set))
}

// Close checkpoints and closes every durable streaming set's WAL — the
// graceful half of the durability story. A killed process never gets here
// and relies on boot recovery instead; both paths are exercised by tests.
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
		if !set.wal.broken {
			//lint:allow lockheld shutdown quiescence invariant: the final checkpoint must capture a set no in-flight ingest can still mutate, so it runs under set.mu even though it compacts the WAL on disk
			if err := s.checkpointSet(set); err != nil && first == nil {
				first = err
			}
		}
		//lint:allow lockheld shutdown quiescence invariant: closing the WAL under set.mu guarantees no ingest holds a reference to a closed log file mid-append
		if err := set.wal.close(); err != nil && first == nil {
			first = err
		}
		set.mu.Unlock()
	}
	return first
}
