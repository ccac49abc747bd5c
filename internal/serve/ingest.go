package serve

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/core"
	"chainaudit/internal/obs"
	"chainaudit/internal/stream"
)

// Streaming-ingest metrics, alongside the request metrics in sinks.go.
var (
	mIngestRequests  = obs.Default.Counter("serve.ingest.requests")
	mIngestBlocks    = obs.Default.Counter("serve.ingest.blocks")
	mIngestSnapshots = obs.Default.Counter("serve.ingest.snapshots")
	mIngestRejects   = obs.Default.Counter("serve.ingest.rejects")
	// mIngestLag tracks how far behind the stream the service observes
	// blocks: now (injected clock) minus the block's own timestamp, in
	// milliseconds, for the most recent append.
	mIngestLag = obs.Default.Gauge("serve.ingest.lag_ms")
	// mReaudit measures windowed re-audit latency — the time from a windowed
	// audit request to its recomputed verdict.
	mReaudit = obs.Default.Timer("serve.window.audit")
)

// TxFrame is one transaction in a block frame — the JSON mirror of a chain
// CSV row (single input/output edge, exact for generated transactions).
type TxFrame struct {
	ID     string   `json:"id"` // 64 hex chars
	VSize  int64    `json:"vsize"`
	Fee    int64    `json:"fee"`
	TimeNS int64    `json:"time_ns"`
	Tag    string   `json:"coinbase_tag,omitempty"`
	In     *EdgeIn  `json:"in,omitempty"`
	Out    *EdgeOut `json:"out,omitempty"`
}

type EdgeIn struct {
	TxID  string `json:"txid"`
	Index uint32 `json:"index"`
	Addr  string `json:"addr"`
	Value int64  `json:"value"`
}

type EdgeOut struct {
	Addr  string `json:"addr"`
	Value int64  `json:"value"`
}

// BlockFrame is one block in an ingest request. Txs arrive in committed
// order with the coinbase first.
type BlockFrame struct {
	Height int64     `json:"height"`
	TimeNS int64     `json:"time_ns"`
	Txs    []TxFrame `json:"txs"`
}

// SnapshotFrame is one mempool observation: the observer's first-seen times
// for pending transactions plus the tip the observer saw. Source names the
// observation vantage point (v2 attribution); empty frames inherit the
// request-level Source. The field is omitempty, so v1 frames — which never
// carry it — marshal byte-identically to the pre-v2 wire format, WAL lines
// included.
type SnapshotFrame struct {
	TimeNS    int64        `json:"time_ns"`
	TipHeight int64        `json:"tip_height"`
	Source    string       `json:"source,omitempty"`
	Txs       []SnapshotTx `json:"txs"`
}

// SnapshotTx is one pending transaction inside a snapshot frame. A zero
// FirstSeenNS falls back to the frame's own TimeNS on ingest.
type SnapshotTx struct {
	ID          string `json:"id"`
	FirstSeenNS int64  `json:"first_seen_ns"`
}

// IngestRequest is the POST /v1/ingest and /v2/ingest body: a batch of
// block and mempool snapshot frames for one streaming data set, applied in
// order (blocks first, then snapshots). There is one versioned frame schema
// and one decode path: v2 adds Source — the request-level default vantage
// attribution, overridable per snapshot frame — and v1 rejects requests
// that carry any attribution. Both fields are omitempty, keeping v1 wire
// and WAL bytes identical to the pre-v2 format.
type IngestRequest struct {
	Dataset string          `json:"dataset"`
	Source  string          `json:"source,omitempty"`
	Blocks  []BlockFrame    `json:"blocks"`
	Mempool []SnapshotFrame `json:"mempool"`
}

// attributedSource returns the first source attribution anywhere in the
// request (the request-level default or any per-frame override), or "".
func (r *IngestRequest) attributedSource() string {
	if r.Source != "" {
		return r.Source
	}
	for i := range r.Mempool {
		if r.Mempool[i].Source != "" {
			return r.Mempool[i].Source
		}
	}
	return ""
}

// IngestResponse reports what one ingest request applied. On a rejected
// append, Appended counts the blocks applied before the failure — those
// remain part of the data set.
type IngestResponse struct {
	API         string  `json:"api"`
	Dataset     string  `json:"dataset"`
	Fingerprint string  `json:"fingerprint"`
	Appended    int     `json:"appended"`
	Snapshots   int     `json:"snapshots"`
	IndexLen    int     `json:"index_len"`
	Height      *int64  `json:"height,omitempty"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	Error       string  `json:"error,omitempty"`
}

func parseTxID(s string) (chain.TxID, error) {
	var id chain.TxID
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != 32 {
		return id, fmt.Errorf("bad txid %q", s)
	}
	copy(id[:], raw)
	return id, nil
}

// FrameBlock converts a chain block to its ingest frame — the recording
// side of the stream protocol (cmd/streamfeed). Like the CSV writer, only
// the first input/output edge is carried, which is exact for generated
// single-edge transactions; buildFrameBlock is its inverse.
func FrameBlock(b *chain.Block) BlockFrame {
	f := BlockFrame{Height: b.Height, TimeNS: b.Time.UnixNano()}
	for i, tx := range b.Txs {
		tf := TxFrame{
			ID:     tx.ID.String(),
			VSize:  tx.VSize,
			Fee:    int64(tx.Fee),
			TimeNS: tx.Time.UnixNano(),
		}
		if i == 0 {
			tf.Tag = b.MinerTag()
		}
		if len(tx.Inputs) > 0 {
			in := tx.Inputs[0]
			tf.In = &EdgeIn{
				TxID:  in.PrevOut.TxID.String(),
				Index: in.PrevOut.Index,
				Addr:  string(in.Address),
				Value: int64(in.Value),
			}
		}
		if len(tx.Outputs) > 0 {
			out := tx.Outputs[0]
			tf.Out = &EdgeOut{Addr: string(out.Address), Value: int64(out.Value)}
		}
		f.Txs = append(f.Txs, tf)
	}
	return f
}

// buildFrameBlock converts one frame to a chain block, mirroring the CSV
// reader's reconstruction (IDs verbatim, single-edge inputs/outputs).
func buildFrameBlock(f *BlockFrame) (*chain.Block, error) {
	b := &chain.Block{Height: f.Height, Time: time.Unix(0, f.TimeNS)}
	for i, tf := range f.Txs {
		id, err := parseTxID(tf.ID)
		if err != nil {
			return nil, fmt.Errorf("block %d tx %d: %w", f.Height, i, err)
		}
		tx := &chain.Tx{
			ID:    id,
			VSize: tf.VSize,
			Fee:   chain.Amount(tf.Fee),
			Time:  time.Unix(0, tf.TimeNS),
		}
		if i == 0 {
			tx.CoinbaseTag = tf.Tag
		}
		if tf.In != nil {
			prev, err := parseTxID(tf.In.TxID)
			if err != nil {
				return nil, fmt.Errorf("block %d tx %d input: %w", f.Height, i, err)
			}
			tx.Inputs = []chain.TxIn{{
				PrevOut: chain.OutPoint{TxID: prev, Index: tf.In.Index},
				Address: chain.Address(tf.In.Addr),
				Value:   chain.Amount(tf.In.Value),
			}}
		}
		if tf.Out != nil {
			tx.Outputs = []chain.TxOut{{Address: chain.Address(tf.Out.Addr), Value: chain.Amount(tf.Out.Value)}}
		}
		b.Txs = append(b.Txs, tx)
	}
	b.ComputeHash([32]byte{})
	return b, nil
}

// newStreamSet wraps a streaming set for the server. The set's lock is the
// auditSet's lock, so audits and ingest contend on exactly one mutex.
func newStreamSet(name string, st *stream.Set) *auditSet {
	return &auditSet{mu: &st.RWMutex, name: name, aud: core.NewIndexedAuditor(st.Index()), stream: st}
}

// emptyStreamSet creates a streaming data set with nothing applied yet.
func (s *Server) emptyStreamSet(name string) *auditSet {
	return newStreamSet(name, stream.New(name, stream.NewIndex(s.cfg.StreamRetain), s.now))
}

// lookupStreamSet resolves the streaming data set an ingest request
// targets, creating it only when create is set. Callers validate the
// request's frames before asking for creation, so a malformed request to a
// fresh name never leaves an empty data set behind (or claims the default
// slot). Ingest into a startup-loaded set is rejected: those are the
// immutable batch references the stream is audited against. A nil, nil
// return means the set does not exist and creation was not requested.
func (s *Server) lookupStreamSet(name string, create bool) (*auditSet, error) {
	s.setsMu.Lock()
	defer s.setsMu.Unlock()
	if set, ok := s.sets[name]; ok {
		if set.stream == nil {
			return nil, fmt.Errorf("dataset %q is a startup-loaded batch set; ingest targets streaming sets only", name)
		}
		return set, nil
	}
	if !create {
		return nil, nil
	}
	set := s.emptyStreamSet(name)
	if s.cfg.StreamDir != "" {
		//lint:allow lockheld set-registration atomicity invariant: creating the set's WAL must happen under the same setsMu hold that registers the set, or two racing first-batches could each open (and truncate) the same log file
		w, err := s.openWAL(name)
		if err != nil {
			return nil, err
		}
		set.wal = w
	}
	s.sets[name] = set
	s.order = append(s.order, name)
	if s.defName == "" {
		s.defName = name
	}
	return set, nil
}

// ---- POST /v1/ingest, POST /v2/ingest ----

// handleIngestV1 is the legacy unattributed endpoint: same decode path as
// v2, but any source attribution in the body is rejected — legacy frames
// land under the reserved anonymous source.
func (s *Server) handleIngestV1(w http.ResponseWriter, r *http.Request) { s.ingest(w, r, API) }

// handleIngestV2 is the attributed endpoint.
func (s *Server) handleIngestV2(w http.ResponseWriter, r *http.Request) { s.ingest(w, r, APIv2) }

// ingest applies a batch of frames to a streaming data set. Appends are
// ordered and fail fast: the first unappendable block (gap, duplicate,
// double spend, missing coinbase) stops the batch with 409, and everything
// applied before it stays. With durable streaming enabled, the parsed batch
// is appended to the set's write-ahead log before it is applied — a WAL
// failure answers 503 without applying anything, so an acknowledged batch
// is always recoverable. Each applied block updates the incremental index
// and the ingest watermark, and rotates the set's fingerprint (retiring its
// result-cache entries); applied snapshot frames rotate the fingerprint
// too, since first-seen times are audit-visible state. Rejections answer with the unified ErrorEnvelope,
// which carries the same progress fields a 200 IngestResponse does.
func (s *Server) ingest(w http.ResponseWriter, r *http.Request, api string) {
	mIngestRequests.Inc()
	t := startTimer()
	limit := s.cfg.MaxIngestBytes
	if limit <= 0 {
		limit = defaultMaxIngestBytes
	}
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	var req IngestRequest
	resp := IngestResponse{API: api}
	reject := func(status int, err error) {
		mIngestRejects.Inc()
		resp.Error = err.Error()
		resp.ElapsedMS = t.ms()
		failIngest(w, status, &resp)
	}
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
			err = fmt.Errorf("body exceeds %d bytes", mbe.Limit)
		}
		reject(status, fmt.Errorf("bad ingest body: %w", err))
		return
	}
	resp.Dataset = req.Dataset
	if req.Dataset == "" {
		reject(http.StatusBadRequest, errors.New("ingest needs a dataset name"))
		return
	}
	if api == API {
		if src := req.attributedSource(); src != "" {
			reject(http.StatusBadRequest, fmt.Errorf("source attribution (%q) requires POST /v2/ingest", src))
			return
		}
	}
	if s.cfg.StreamDir != "" && !validStreamName(req.Dataset) {
		reject(http.StatusBadRequest, errors.New("dataset name unusable for durable streaming (allowed: letters, digits, '.', '_', '-'; no leading '.')"))
		return
	}
	set, err := s.lookupStreamSet(req.Dataset, false)
	if err != nil {
		reject(http.StatusConflict, err)
		return
	}

	// Frames are decoded before creating a fresh data set and before taking
	// the set's write lock: malformed input neither registers an empty set
	// nor blocks concurrent audits.
	batch, err := DecodeBatch(&req)
	if err != nil {
		reject(http.StatusBadRequest, err)
		return
	}
	if set == nil {
		if set, err = s.lookupStreamSet(req.Dataset, true); err != nil {
			reject(http.StatusConflict, err)
			return
		}
	}

	status, ck := s.ingestLocked(set, &req, batch, &resp)
	if ck != nil {
		// The checkpoint this batch sealed is written after the ack, on the
		// set's one background writer, outside set.mu.
		defer func() { go ck.run() }()
	}
	resp.ElapsedMS = t.ms()
	if status != http.StatusOK {
		failIngest(w, status, &resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// ingestLocked is the critical section of ingest: WAL append (and the seal
// of a log the append makes due), in-memory apply, and the capture of a
// sealed checkpoint under the set's write lock. A covered batch
// (stream.Set.Covered) is not logged: it can only be refused, and its
// apply answers the 409 without changing the set. It returns the HTTP
// status for the batch, fills resp's progress fields, and returns the
// checkpoint write a seal started, if any; the caller writes the response
// and starts that write AFTER the lock is released, so neither a slow
// client connection nor checkpoint encoding and I/O ever holds the set
// against concurrent ingests and audits.
func (s *Server) ingestLocked(set *auditSet, req *IngestRequest, batch *stream.Batch, resp *IngestResponse) (int, *ckptWrite) {
	set.mu.Lock()
	defer set.mu.Unlock()
	sealed := false
	if set.wal != nil && !set.stream.Covered(batch) {
		var err error
		//lint:allow lockheld write-ahead ordering invariant: the WAL append, and the seal of the log it makes due, must commit under the same set.mu hold as stream.Set.Apply, or a concurrent batch could apply between log and apply (recovery would replay them out of order) or land in a generation the sealed checkpoint claims to cover
		if sealed, err = set.wal.appendRequest(req); err != nil {
			// Write-ahead failed: nothing was applied, so the feeder can
			// safely re-ship the whole batch after the service recovers.
			// (503 counts as a service error via writeError, not a reject.)
			resp.report(set.stream.Progress())
			resp.Error = err.Error()
			return http.StatusServiceUnavailable, nil
		}
	}
	before := set.stream.State().Fingerprint
	p, err := set.apply(batch)
	if p.Fingerprint != before {
		s.cache.drop(set.name)
	}
	resp.report(p)
	var ck *ckptWrite
	if sealed {
		ck = set.wal.startWrite(captureCheckpoint(set, set.wal.gen))
	}
	if err != nil {
		resp.Error = err.Error()
		return http.StatusConflict, ck
	}
	return http.StatusOK, ck
}

// apply runs a decoded batch through the set's one apply path and counts
// the outcome in the ingest metrics. Live ingest and WAL recovery both
// call it, which is what makes a recovered set byte-identical to one that
// never restarted. Caller holds set.mu (or has exclusive access during
// boot) and has already logged the batch when durability is on.
func (set *auditSet) apply(batch *stream.Batch) (stream.Progress, error) {
	p, err := set.stream.Apply(batch)
	mIngestBlocks.Add(int64(p.Appended))
	mIngestSnapshots.Add(int64(p.Snapshots))
	if p.Appended > 0 {
		_, last, _ := set.stream.Watermark()
		mIngestLag.Set(float64(last.Sub(batch.Blocks[p.Appended-1].Time)) / float64(time.Millisecond))
	}
	if err != nil {
		mIngestRejects.Inc()
	}
	return p, err
}

// report copies a set's progress into the response.
func (r *IngestResponse) report(p stream.Progress) {
	r.Fingerprint = p.Fingerprint
	r.Appended = p.Appended
	r.Snapshots = p.Snapshots
	r.IndexLen = p.IndexLen
	r.Height = p.Height
}

// DecodeBatch converts a request's frames to the decoded batch a
// stream.Set applies. It is the one ingest decoder: HTTP ingest, WAL
// replay and the in-process observer.IndexSink all decode through it, so
// every applied block is freshly built and shares nothing with its source.
// A pending transaction whose ID does not parse is observer noise, not
// data: it is dropped, but its snapshot still counts it.
func DecodeBatch(req *IngestRequest) (*stream.Batch, error) {
	b := &stream.Batch{
		Source:    req.Source,
		Blocks:    make([]*chain.Block, 0, len(req.Blocks)),
		Snapshots: make([]stream.Snapshot, 0, len(req.Mempool)),
	}
	for i := range req.Blocks {
		blk, err := buildFrameBlock(&req.Blocks[i])
		if err != nil {
			return nil, err
		}
		b.Blocks = append(b.Blocks, blk)
	}
	for i := range req.Mempool {
		sf := &req.Mempool[i]
		sn := stream.Snapshot{
			Time:      time.Unix(0, sf.TimeNS),
			TipHeight: sf.TipHeight,
			Source:    sf.Source,
			Count:     len(sf.Txs),
			Seen:      make([]stream.Seen, 0, len(sf.Txs)),
		}
		for _, stx := range sf.Txs {
			id, err := parseTxID(stx.ID)
			if err != nil {
				continue
			}
			var at time.Time // zero: no first-seen time of its own
			if stx.FirstSeenNS != 0 {
				at = time.Unix(0, stx.FirstSeenNS)
			}
			sn.Seen = append(sn.Seen, stream.Seen{ID: id, At: at})
		}
		b.Snapshots = append(b.Snapshots, sn)
	}
	return b, nil
}
