// Package serve is chainauditd's engine: a long-running HTTP/JSON audit
// service over one or more chain data sets (CSV files, freshly simulated
// suites, or live streams). Startup data sets are loaded once into shared
// audit indexes; streaming data sets grow block by block through
// POST /v1/ingest, with the incremental index updated per append and the
// set's fingerprint rotated so stale cache entries retire themselves. Every
// audit — full or windowed, static or streaming — reads the set index's
// retained records through core.Auditor. Every request runs through the
// context-aware pipeline executor under a per-request watchdog, and
// completed results are memoized by (dataset fingerprint, audit, params).
// Audits and experiments resolve through exactly the code paths the batch
// CLIs use — core.Auditor's AuditOptions API, the shared section
// renderers, and the experiments registry — so a service response is
// value-identical (for text formats, byte-identical) to the corresponding
// CLI output, and a replayed stream is byte-identical to the batch audit of
// the same window. See DESIGN.md §8 and §11.
package serve

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"chainaudit/internal/core"
	"chainaudit/internal/dataset"
	"chainaudit/internal/experiments"
	"chainaudit/internal/faults"
	"chainaudit/internal/obs"
	"chainaudit/internal/stream"
)

// API is the envelope schema identifier. Versioning policy: fields are
// added, never renamed or repurposed; a breaking change bumps the suffix
// and the old paths keep serving v1.
const API = "chainaudit.serve/v1"

// APIv2 is the ingest schema identifier for POST /v2/ingest: the same frame
// schema as v1 plus source attribution (a request-level default and
// per-frame overrides). Both versions decode through one path; v1 simply
// rejects frames that carry attribution.
const APIv2 = "chainaudit.serve/v2"

// ChainSpec names one CSV data set to load at startup.
type ChainSpec struct {
	Name string
	Path string
}

// Config describes the data the service loads and the bounds it runs under.
type Config struct {
	// Seed and Scale parameterize the simulated suite (when Sim is set).
	Seed  uint64
	Scale float64
	// Chaos optionally builds the simulated suite under a deterministic
	// fault-injection spec (internal/faults). Degraded data is served with
	// degraded=true envelopes, never refused.
	Chaos string
	// Chains are CSV data sets to load (cmd/gendata output). Malformed rows
	// are quarantined, noted, and flagged as degraded rather than fatal.
	Chains []ChainSpec
	// Sim additionally builds the three simulated suite data sets (A, B, C)
	// and enables the /v1/experiments endpoints.
	Sim bool
	// Watchdog bounds each request's audit computation (0 = none). A request
	// may override it via ?timeout_ms=N.
	Watchdog time.Duration
	// Clock supplies the service's notion of "now" for ingest watermarks and
	// lag metrics (nil = time.Now). Tests inject a fixed clock; result bytes
	// never depend on it.
	Clock func() time.Time
	// StreamRetain bounds each streaming data set's incremental index to
	// the most recent N blocks (0 = unbounded). Every audit reads the
	// retained horizon — full-chain audits cover exactly those N blocks —
	// and windowed audits over any window ≤ N are unaffected by the
	// compaction (see DESIGN.md §12).
	StreamRetain int
	// StreamDir enables durable streaming: every accepted ingest batch is
	// appended to a per-set write-ahead log under this directory before the
	// response is written, and on boot every set found there is recovered by
	// replaying its checkpoint plus the WAL suffix through the ingest apply
	// path (see DESIGN.md §13). Empty disables durability (in-memory
	// streaming sets, the pre-durability behavior).
	StreamDir string
	// StreamFsync selects the WAL durability policy: "always" (fsync every
	// append), "batch" (fsync every few appends and at checkpoints, the
	// default), or "off" (never fsync; the OS decides).
	StreamFsync string
	// CheckpointEvery compacts each set's WAL into a checkpoint after N
	// appended batches (0 = default 256).
	CheckpointEvery int
	// MaxIngestBytes bounds one ingest request body; oversize requests are
	// rejected with 413 (0 = default 8 MiB).
	MaxIngestBytes int64
}

// auditSet is one loaded data set: a shared auditor plus the provenance the
// envelopes carry. Startup-loaded sets are read-only; streaming sets
// (created by POST /v1/ingest) grow, so every audit read holds mu.RLock and
// every append holds mu.Lock. The fingerprint rotates on append, and the
// append drops all of the set's result-cache entries at once.
type auditSet struct {
	// mu is a streaming set's own stream.Set lock, so each set has exactly
	// one.
	mu   *sync.RWMutex
	name string
	// fingerprint, blocks, and txs describe a startup-loaded set; a
	// streaming set reports its stream's (see provenance).
	fingerprint string
	aud         *core.Auditor
	blocks      int
	txs         int64
	degraded    bool
	notes       []string

	// stream holds live-ingest state; nil for startup-loaded sets.
	stream *stream.Set
	// wal is the set's write-ahead log; nil unless Config.StreamDir is set.
	// recovery describes the boot-time recovery that rebuilt the set; nil
	// for sets created live.
	wal      *setWAL
	recovery *recoveryInfo
}

// provenance returns the set's fingerprint, retained block count, and
// transaction count. Callers hold mu.
func (set *auditSet) provenance() (fingerprint string, blocks int, txs int64) {
	if set.stream == nil {
		return set.fingerprint, set.blocks, set.txs
	}
	st := set.stream.State()
	return st.Fingerprint, set.stream.Index().Len(), st.Txs
}

// Server is the audit service. It is safe for concurrent use: data sets and
// indexes are immutable after New, and the result cache synchronizes
// memoization.
type Server struct {
	cfg     Config
	plan    *faults.Plan
	suite   *experiments.Suite
	suiteFP string
	// setsMu guards sets/order: POST /v1/ingest registers new streaming
	// data sets at runtime. Mutation of a set's contents is the set's own
	// mu; this lock only covers the map.
	setsMu  sync.RWMutex
	sets    map[string]*auditSet
	order   []string // deterministic listing order
	defName string   // default dataset for audits
	cache   *resultCache
	mux     *http.ServeMux
	start   time.Time
	// fsync is the parsed Config.StreamFsync policy (durable streaming only).
	fsync fsyncPolicy
}

// now reads the configured clock (observability only — watermarks and lag
// metrics; never result bytes).
func (s *Server) now() time.Time {
	if s.cfg.Clock != nil {
		return s.cfg.Clock()
	}
	return time.Now()
}

// New loads every configured data set, builds the shared indexes' owners,
// and wires the routes. Loading is strict about configuration (a missing
// CSV is fatal) but lenient about data (malformed rows quarantine).
func New(cfg Config) (*Server, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if !cfg.Sim && len(cfg.Chains) == 0 && cfg.StreamDir == "" {
		return nil, fmt.Errorf("serve: no data sets configured (need Sim, Chains, or StreamDir)")
	}
	s := &Server{
		cfg:   cfg,
		sets:  make(map[string]*auditSet),
		cache: newResultCache(),
		start: time.Now(),
	}
	if cfg.StreamDir != "" {
		policy, err := parseFsyncPolicy(cfg.StreamFsync)
		if err != nil {
			return nil, err
		}
		s.fsync = policy
	}
	if cfg.Chaos != "" {
		plan, err := faults.ParseSpec(cfg.Chaos)
		if err != nil {
			return nil, err
		}
		s.plan = plan
	}
	if cfg.Sim {
		suite, err := experiments.NewSuiteChaos(cfg.Seed, cfg.Scale, s.plan)
		if err != nil {
			return nil, err
		}
		s.suite = suite
		s.suiteFP = obs.ConfigHash(
			fmt.Sprintf("seed=%d", cfg.Seed),
			fmt.Sprintf("scale=%g", cfg.Scale),
			fmt.Sprintf("chaos=%s", s.plan.Fingerprint()),
		)
		if err := s.addSimSets(); err != nil {
			return nil, err
		}
	}
	for _, spec := range cfg.Chains {
		if err := s.addChainCSV(spec); err != nil {
			return nil, err
		}
	}
	if cfg.StreamDir != "" {
		if err := s.recoverStreams(); err != nil {
			return nil, err
		}
	}
	s.routes()
	return s, nil
}

// addSimSets registers the suite's three data sets. A and C share the
// suite's lazily built indexes (the same ones the experiments consume); B
// gets a plain auditor whose index builds on first audit.
func (s *Server) addSimSets() error {
	degraded := s.plan.Active()
	for _, ds := range []struct {
		name string
		aud  *core.Auditor
		data *dataset.Dataset
	}{
		{"A", core.NewIndexedAuditor(s.suite.AIndex()), s.suite.A},
		{"B", &core.Auditor{Chain: s.suite.B.Result.Chain, Registry: s.suite.B.Registry}, s.suite.B},
		{"C", s.suite.CAuditor(), s.suite.C},
	} {
		set := &auditSet{
			mu:   new(sync.RWMutex),
			name: ds.name,
			fingerprint: obs.ConfigHash("sim", ds.name,
				fmt.Sprintf("seed=%d", s.cfg.Seed),
				fmt.Sprintf("scale=%g", s.cfg.Scale),
				fmt.Sprintf("chaos=%s", s.plan.Fingerprint())),
			aud:      ds.aud,
			blocks:   ds.data.Result.Chain.Len(),
			txs:      ds.data.Result.Chain.TxCount(),
			degraded: degraded,
		}
		if degraded {
			set.notes = append(set.notes, fmt.Sprintf("simulated under fault plan %s", s.plan.Fingerprint()))
		}
		if err := s.addSet(set); err != nil {
			return err
		}
	}
	// C carries the planted deviations the paper audits; it is the default.
	s.defName = "C"
	return nil
}

// addChainCSV loads one CSV data set. The fingerprint is the sha256 of the
// file bytes, so the result cache keys on the data actually served, not the
// path it came from.
func (s *Server) addChainCSV(spec ChainSpec) error {
	if spec.Name == "" || spec.Path == "" {
		return fmt.Errorf("serve: chain spec needs name and path (got %q=%q)", spec.Name, spec.Path)
	}
	raw, err := os.ReadFile(spec.Path)
	if err != nil {
		return fmt.Errorf("serve: chain %s: %w", spec.Name, err)
	}
	c, quarantined, err := dataset.ReadChainCSVQuarantine(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("serve: chain %s: %w", spec.Name, err)
	}
	set := &auditSet{
		mu:          new(sync.RWMutex),
		name:        spec.Name,
		fingerprint: fmt.Sprintf("%x", sha256.Sum256(raw))[:16],
		aud:         core.NewAuditor(c),
		blocks:      c.Len(),
		txs:         c.TxCount(),
		degraded:    len(quarantined) > 0,
	}
	if n := len(quarantined); n > 0 {
		set.notes = append(set.notes, fmt.Sprintf("quarantined %d malformed records", n))
	}
	if s.defName == "" {
		s.defName = spec.Name
	}
	return s.addSet(set)
}

func (s *Server) addSet(set *auditSet) error {
	s.setsMu.Lock()
	defer s.setsMu.Unlock()
	if _, dup := s.sets[set.name]; dup {
		return fmt.Errorf("serve: duplicate data set name %q", set.name)
	}
	s.sets[set.name] = set
	s.order = append(s.order, set.name)
	return nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// DatasetNames returns the loaded data set names in listing order.
func (s *Server) DatasetNames() []string {
	s.setsMu.RLock()
	defer s.setsMu.RUnlock()
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// lookupSet resolves a request's dataset parameter ("" = the default).
func (s *Server) lookupSet(name string) (*auditSet, error) {
	if name == "" {
		name = s.defName
	}
	s.setsMu.RLock()
	set, ok := s.sets[name]
	s.setsMu.RUnlock()
	if !ok {
		names := s.DatasetNames()
		sort.Strings(names)
		return nil, fmt.Errorf("unknown dataset %q (loaded: %v)", name, names)
	}
	return set, nil
}
