package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/core"
	"chainaudit/internal/experiments"
	"chainaudit/internal/obs"
	"chainaudit/internal/pipeline"
	"chainaudit/internal/report"
)

// Envelope is the v1 response body for experiment and audit requests.
// Results carry the same tables/figures the batch CLIs print (report JSON
// shapes); Notes carry the section's non-table lines verbatim.
type Envelope struct {
	API         string            `json:"api"`
	Kind        string            `json:"kind"` // "experiment" or "audit"
	Name        string            `json:"name"`
	Dataset     string            `json:"dataset,omitempty"`
	Fingerprint string            `json:"fingerprint,omitempty"`
	Params      map[string]string `json:"params,omitempty"`
	Cached      bool              `json:"cached"`
	Degraded    bool              `json:"degraded"`
	ElapsedMS   float64           `json:"elapsed_ms"`
	Notes       []string          `json:"notes"`
	Results     []json.RawMessage `json:"results"`
	Error       string            `json:"error,omitempty"`
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /v1/healthz", s.instrument(s.handleHealthz))
	s.mux.HandleFunc("GET /v1/metrics", s.instrument(s.handleMetrics))
	s.mux.HandleFunc("GET /v1/experiments", s.instrument(s.handleExperimentList))
	s.mux.HandleFunc("POST /v1/experiments/{name}", s.instrument(s.handleExperimentRun))
	s.mux.HandleFunc("POST /v1/audits/{kind}", s.instrument(s.handleAudit))
	s.mux.HandleFunc("POST /v1/ingest", s.instrument(s.handleIngestV1))
	s.mux.HandleFunc("POST /v2/ingest", s.instrument(s.handleIngestV2))
	// Convenience alias for the cross-observer divergence audit.
	s.mux.HandleFunc("POST /v1/audit/divergence", s.instrument(func(w http.ResponseWriter, r *http.Request) {
		r.SetPathValue("kind", "divergence")
		s.handleAudit(w, r)
	}))
	// Everything unrouted gets the unified error envelope, not the mux's
	// plain-text 404.
	s.mux.HandleFunc("/", s.instrument(s.handleNotFound))
}

// handleNotFound is the catch-all route. Registering "/" disables the
// mux's built-in method-mismatch answer, so the handler reconstructs it:
// a path served under another method gets 405 (with Allow), everything
// else 404 — both in the unified envelope.
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	var allowed []string
	for _, m := range []string{http.MethodGet, http.MethodPost} {
		if m == r.Method {
			continue
		}
		probe := r.Clone(r.Context())
		probe.Method = m
		if _, pattern := s.mux.Handler(probe); pattern != "" && pattern != "/" {
			allowed = append(allowed, m)
		}
	}
	if len(allowed) > 0 {
		w.Header().Set("Allow", strings.Join(allowed, ", "))
		writeError(w, http.StatusMethodNotAllowed, ErrorEnvelope{
			Error: fmt.Sprintf("method %s not allowed for %s (allow: %s)",
				r.Method, r.URL.Path, strings.Join(allowed, ", ")),
		})
		return
	}
	writeError(w, http.StatusNotFound, ErrorEnvelope{
		Error: fmt.Sprintf("no such endpoint: %s %s", r.Method, r.URL.Path),
	})
}

// reqTimer measures one request's wall-clock span — the latency metric and
// the envelope's elapsed_ms field. Wall time in internal/serve is
// observability-only and never reaches result bytes, which is why the
// package sits on the walltime analyzer's allowlist rather than carrying
// //lint:allow directives (DESIGN.md §9).
type reqTimer struct{ t0 time.Time }

func startTimer() reqTimer { return reqTimer{t0: time.Now()} }

// elapsed returns the span since the timer started.
func (t reqTimer) elapsed() time.Duration { return time.Since(t.t0) }

// ms returns the span in fractional milliseconds, the envelope's unit.
func (t reqTimer) ms() float64 { return float64(t.elapsed()) / float64(time.Millisecond) }

func (s *Server) instrument(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		mRequests.Inc()
		t := startTimer()
		defer func() { mLatency.Observe(t.elapsed()) }()
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// ErrorAPI is the unified error schema identifier: every handler's error
// response — audits, experiments, ingest, unknown routes — is one
// ErrorEnvelope, whatever the success shape of the endpoint.
const ErrorAPI = "chainaudit.error/v1"

// ErrorEnvelope is the one error body the service emits. The context fields
// are filled in as far as the request got before failing. The ingest
// progress fields deliberately reuse IngestResponse's JSON names
// ("height", "appended", ...), so a feeder can decode a rejected batch's
// progress without caring which schema it got — the observer's covered-block
// trimming depends on this.
type ErrorEnvelope struct {
	API   string `json:"api"`
	Code  int    `json:"code"`
	Error string `json:"error"`
	// Request context, when known.
	Kind    string `json:"kind,omitempty"`
	Name    string `json:"name,omitempty"`
	Dataset string `json:"dataset,omitempty"`
	// Ingest progress: what a rejected batch applied before the failure.
	Fingerprint string  `json:"fingerprint,omitempty"`
	Appended    int     `json:"appended,omitempty"`
	Snapshots   int     `json:"snapshots,omitempty"`
	IndexLen    int     `json:"index_len,omitempty"`
	Height      *int64  `json:"height,omitempty"`
	ElapsedMS   float64 `json:"elapsed_ms"`
}

// writeError is the single emitter of error responses. 5xx statuses count
// as service errors.
func writeError(w http.ResponseWriter, status int, e ErrorEnvelope) {
	if status >= 500 {
		mErrors.Inc()
	}
	e.API = ErrorAPI
	e.Code = status
	writeJSON(w, status, e)
}

// fail adapts an audit/experiment request's context into the unified error
// envelope.
func fail(w http.ResponseWriter, status int, env Envelope, err error) {
	writeError(w, status, ErrorEnvelope{
		Error:       err.Error(),
		Kind:        env.Kind,
		Name:        env.Name,
		Dataset:     env.Dataset,
		Fingerprint: env.Fingerprint,
		ElapsedMS:   env.ElapsedMS,
	})
}

// failIngest adapts a rejected ingest into the unified error envelope,
// keeping the progress fields feeders rely on.
func failIngest(w http.ResponseWriter, status int, resp *IngestResponse) {
	writeError(w, status, ErrorEnvelope{
		Error:       resp.Error,
		Dataset:     resp.Dataset,
		Fingerprint: resp.Fingerprint,
		Appended:    resp.Appended,
		Snapshots:   resp.Snapshots,
		IndexLen:    resp.IndexLen,
		Height:      resp.Height,
		ElapsedMS:   resp.ElapsedMS,
	})
}

// writeResult finishes a successful request in the asked-for format.
func writeResult(w http.ResponseWriter, format string, env Envelope, p *payload) {
	switch format {
	case "text", "csv":
		body := p.Text
		if format == "csv" {
			body = p.CSV
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("X-Chainaudit-Cached", strconv.FormatBool(env.Cached))
		w.Header().Set("X-Chainaudit-Fingerprint", env.Fingerprint)
		_, _ = w.Write([]byte(body))
	default:
		env.API = API
		env.Notes = p.Notes
		env.Results = p.Results
		if env.Notes == nil {
			env.Notes = []string{}
		}
		if env.Results == nil {
			env.Results = []json.RawMessage{}
		}
		writeJSON(w, http.StatusOK, env)
	}
}

// format validates the ?format= parameter. Audits have no CSV mode (the
// batch CLI does not either), so csvOK is false for them.
func format(q url.Values, csvOK bool) (string, error) {
	f := q.Get("format")
	switch f {
	case "", "json":
		return "json", nil
	case "text":
		return "text", nil
	case "csv":
		if csvOK {
			return "csv", nil
		}
		return "", fmt.Errorf("format csv is only available for experiments")
	default:
		return "", fmt.Errorf("unknown format %q (json, text%s)", f, map[bool]string{true: ", csv"}[csvOK])
	}
}

// timeout resolves the effective watchdog for one request: the server
// default, overridable (in either direction) by ?timeout_ms=N.
func (s *Server) timeout(q url.Values) (time.Duration, error) {
	raw := q.Get("timeout_ms")
	if raw == "" {
		return s.cfg.Watchdog, nil
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms < 0 {
		return 0, fmt.Errorf("bad timeout_ms %q", raw)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// runBounded executes one computation under the request context and the
// watchdog — through the same pipeline layer the batch reproduction uses. Each call runs on its own worker
// goroutine, so an abandoned (timed-out) computation never wedges other
// requests.
func (s *Server) runBounded(ctx context.Context, timeout time.Duration, f func(ctx context.Context) (*payload, error)) (*payload, error) {
	rc := pipeline.RunConfig{Timeout: timeout}
	res, batchErr := pipeline.MapCtx(pipeline.Default(), ctx, 1, rc,
		func(ctx context.Context, _ int) (*payload, error) { return f(ctx) })
	if batchErr != nil {
		return nil, batchErr
	}
	return res[0].Value, res[0].Err
}

// errStatus maps a computation error to an HTTP status: watchdog timeouts
// are 504 (the request was sound, the bound was not), everything else 500.
func errStatus(err error) int {
	if errors.Is(err, pipeline.ErrWatchdog) {
		mWatchdogs.Inc()
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// ---- GET /v1/healthz ----

type healthDataset struct {
	Name        string   `json:"name"`
	Fingerprint string   `json:"fingerprint"`
	Blocks      int      `json:"blocks"`
	Txs         int64    `json:"txs"`
	IndexLen    int      `json:"index_len"`
	Degraded    bool     `json:"degraded"`
	Notes       []string `json:"notes,omitempty"`
	// Watermark reports a streaming set's ingest progress: the last appended
	// height and when it was applied (per the injected clock). Absent for
	// startup-loaded sets and streams that have not appended yet.
	Watermark *ingestWatermark `json:"watermark,omitempty"`
	// Retain is the streaming set's retention horizon in blocks; 0 (and
	// absent) means unbounded. Ingested counts every block ever applied,
	// including those compacted past the horizon.
	Retain   int   `json:"retain,omitempty"`
	Ingested int64 `json:"ingested,omitempty"`
	// Snapshots counts the mempool snapshot frames the set has observed
	// (checkpoint-restored counts included) — the durability gate's
	// zero-lost-snapshots evidence.
	Snapshots int64 `json:"snapshots,omitempty"`
	// Recovery describes the boot-time WAL recovery that rebuilt this set;
	// absent for sets created live or served without durable streaming.
	Recovery *recoveryInfo `json:"recovery,omitempty"`
	// Sources lists the attributed observation sources that have fed this
	// streaming set (sorted, cumulative across retention compaction).
	Sources []string `json:"sources,omitempty"`
}

type ingestWatermark struct {
	Height     int64     `json:"height"`
	LastAppend time.Time `json:"last_append"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := struct {
		API         string          `json:"api"`
		Status      string          `json:"status"`
		UptimeMS    float64         `json:"uptime_ms"`
		Datasets    []healthDataset `json:"datasets"`
		Experiments int             `json:"experiments"`
	}{API: API, Status: "ok", UptimeMS: reqTimer{t0: s.start}.ms()}
	for _, name := range s.DatasetNames() {
		set, err := s.lookupSet(name)
		if err != nil {
			continue
		}
		set.mu.RLock()
		fp, blocks, txs := set.provenance()
		hd := healthDataset{
			Name: set.name, Fingerprint: fp,
			Blocks: blocks, Txs: txs, IndexLen: blocks,
			Degraded: set.degraded, Notes: set.notes,
		}
		if st := set.stream; st != nil {
			hd.Retain = st.Index().Retention()
			hd.Ingested = st.Index().Ingested()
			hd.Snapshots = st.State().Snapshots
			hd.Recovery = set.recovery
			hd.Sources = st.Index().Sources()
			if h, last, ok := st.Watermark(); ok {
				hd.Watermark = &ingestWatermark{Height: h, LastAppend: last}
			}
		}
		set.mu.RUnlock()
		resp.Datasets = append(resp.Datasets, hd)
	}
	if s.suite != nil {
		resp.Experiments = len(experiments.All())
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---- GET /v1/metrics ----

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := struct {
		API     string       `json:"api"`
		Metrics obs.Snapshot `json:"metrics"`
	}{API: API, Metrics: obs.Default.Snapshot()}
	writeJSON(w, http.StatusOK, resp)
}

// ---- GET /v1/experiments ----

type expInfo struct {
	ID     string              `json:"id"`
	Title  string              `json:"title"`
	Params []experiments.Param `json:"params"`
}

func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	resp := struct {
		API         string              `json:"api"`
		Available   bool                `json:"available"`
		Experiments []expInfo           `json:"experiments"`
		SuiteParams []experiments.Param `json:"suite_params"`
	}{API: API, Available: s.suite != nil, SuiteParams: experiments.SuiteParams()}
	for _, d := range experiments.All() {
		info := expInfo{ID: d.ID, Title: d.Title, Params: d.Params}
		if info.Params == nil {
			info.Params = []experiments.Param{}
		}
		resp.Experiments = append(resp.Experiments, info)
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---- POST /v1/experiments/{name} ----

func (s *Server) handleExperimentRun(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	env := Envelope{Kind: "experiment", Name: name, Fingerprint: s.suiteFP}
	q := r.URL.Query()
	fmtName, err := format(q, true)
	if err != nil {
		fail(w, http.StatusBadRequest, env, err)
		return
	}
	if s.suite == nil {
		fail(w, http.StatusBadRequest, env, fmt.Errorf("no simulated suite loaded (start chainauditd with -sim)"))
		return
	}
	d, ok := experiments.ByName(name)
	if !ok {
		fail(w, http.StatusNotFound, env, fmt.Errorf("unknown experiment %q", name))
		return
	}
	wd, err := s.timeout(q)
	if err != nil {
		fail(w, http.StatusBadRequest, env, err)
		return
	}
	env.Degraded = s.plan.Active()
	key := obs.ConfigHash(s.suiteFP, "experiment="+name)
	t := startTimer()
	p, hit, err := s.cache.do(key, func() (*payload, error) {
		return s.runBounded(r.Context(), wd, func(context.Context) (*payload, error) {
			rec := &recSink{}
			if err := d.Run(s.suite, rec); err != nil {
				return nil, err
			}
			return rec.payload()
		})
	})
	env.ElapsedMS = t.ms()
	if err != nil {
		fail(w, errStatus(err), env, err)
		return
	}
	env.Cached = hit
	writeResult(w, fmtName, env, p)
}

// ---- POST /v1/audits/{kind} ----

// auditReq is one parsed audit request. Display values keep the CLI's flag
// semantics (e.g. the dark-fee table title shows the requested threshold).
type auditReq struct {
	opts     core.AuditOptions
	sppeShow float64
	address  string
	pool     string
	// window narrows the audit to the set's most recent window retained
	// blocks (0 = every retained block).
	window int
	// div carries the divergence audit's knobs (?threshold_ms=, ?minshared=).
	div core.DivergenceOptions
}

// parseAudit maps query parameters onto AuditOptions with the CLI flags'
// semantics: absent means package default, an explicit 0 means "no
// threshold".
func parseAudit(kind string, q url.Values) (*auditReq, map[string]string, error) {
	req := &auditReq{sppeShow: core.DefaultSPPE}
	params := map[string]string{}
	if raw := q.Get("minshare"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("bad minshare %q", raw)
		}
		req.opts.MinShare = v
		if v <= 0 {
			req.opts.MinShare = -1
		}
		params["minshare"] = raw
	}
	if raw := q.Get("sppe"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("bad sppe %q", raw)
		}
		req.opts.SPPE = v
		req.sppeShow = v
		if v <= 0 {
			req.opts.SPPE = -1
		}
		params["sppe"] = raw
	}
	if raw := q.Get("threshold_ms"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("bad threshold_ms %q", raw)
		}
		req.div.Threshold = time.Duration(v * float64(time.Millisecond))
		if v <= 0 {
			req.div.Threshold = -1
		}
		params["threshold_ms"] = raw
	}
	if raw := q.Get("minshared"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil {
			return nil, nil, fmt.Errorf("bad minshared %q", raw)
		}
		req.div.MinShared = v
		if v <= 0 {
			req.div.MinShared = -1
		}
		params["minshared"] = raw
	}
	if raw := q.Get("windows"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil {
			return nil, nil, fmt.Errorf("bad windows %q", raw)
		}
		req.opts.Windows = v
		params["windows"] = raw
	}
	if raw := q.Get("window"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			return nil, nil, fmt.Errorf("bad window %q", raw)
		}
		switch kind {
		case "ppe", "lowfee", "darkfee":
		default:
			return nil, nil, fmt.Errorf("audit %s has no sliding-window variant (ppe, lowfee, darkfee)", kind)
		}
		req.window = v
		params["window"] = raw
	}
	req.address = q.Get("address")
	req.pool = q.Get("pool")
	switch kind {
	case "scam":
		if req.address == "" {
			return nil, nil, fmt.Errorf("audit scam needs ?address=")
		}
		params["address"] = req.address
	case "darkfee":
		if req.pool == "" {
			return nil, nil, fmt.Errorf("audit darkfee needs ?pool=")
		}
		params["pool"] = req.pool
	}
	return req, params, nil
}

// auditRunners computes each audit kind into a payload, through exactly the
// AuditOptions methods and section renderers cmd/chainaudit uses — the text
// body is byte-identical to the CLI's section for the same chain and
// parameters. A windowed request hands the runner the set's auditor
// narrowed by Auditor.Last, so every audit — full or windowed, static or
// streaming — reads the same retained records through one code path.
var auditRunners = map[string]func(aud *core.Auditor, req *auditReq) (*payload, error){
	"ppe": func(aud *core.Auditor, req *auditReq) (*payload, error) {
		rep := aud.AuditPPE(req.opts)
		p := &payload{Notes: []string{fmt.Sprintf("PPE overall: %s", rep.Overall)}}
		if err := p.addTables(core.PPETable(rep)); err != nil {
			return nil, err
		}
		return p, renderInto(p, func(w io.Writer) error { return core.WritePPESection(w, rep) })
	},
	"selfinterest": func(aud *core.Auditor, req *auditReq) (*payload, error) {
		rep, err := aud.AuditSelfInterest(req.opts)
		if err != nil {
			return nil, err
		}
		p := &payload{}
		if len(rep.Findings) == 0 {
			p.Notes = []string{"self-interest audit: no significant deviations"}
		} else {
			tables := []*report.Table{core.SelfInterestTable(rep.Findings)}
			if rep.Windows > 1 {
				tables = append(tables, core.WindowedTable(rep))
			}
			if err := p.addTables(tables...); err != nil {
				return nil, err
			}
		}
		return p, renderInto(p, func(w io.Writer) error { return core.WriteSelfInterestSection(w, rep) })
	},
	"lowfee": func(aud *core.Auditor, req *auditReq) (*payload, error) {
		lows := aud.AuditLowFee(req.opts)
		p := &payload{}
		if len(lows) == 0 {
			p.Notes = []string{"norm III: no sub-minimum confirmations"}
		} else if err := p.addTables(core.LowFeeTable(lows)); err != nil {
			return nil, err
		}
		return p, renderInto(p, func(w io.Writer) error { return core.WriteLowFeeSection(w, lows) })
	},
	"scam": func(aud *core.Auditor, req *auditReq) (*payload, error) {
		txs := aud.TouchingAddress(chain.Address(req.address))
		var rows []core.DifferentialResult
		if len(txs) > 0 {
			var err error
			if rows, err = aud.AuditScam(txs, req.opts); err != nil {
				return nil, err
			}
		}
		p := &payload{Notes: []string{fmt.Sprintf("transactions touching %s: %d", req.address, len(txs))}}
		if len(txs) > 0 {
			if err := p.addTables(core.ScamTable(rows)); err != nil {
				return nil, err
			}
		}
		return p, renderInto(p, func(w io.Writer) error {
			return core.WriteScamSection(w, req.address, len(txs), rows)
		})
	},
	"darkfee": func(aud *core.Auditor, req *auditReq) (*payload, error) {
		cands := aud.AuditDarkFee(req.pool, req.opts)
		p := &payload{Notes: []string{fmt.Sprintf("%d candidates", len(cands))}}
		if len(cands) > 0 {
			if err := p.addTables(core.DarkFeeTable(req.pool, req.sppeShow, cands)); err != nil {
				return nil, err
			}
		}
		return p, renderInto(p, func(w io.Writer) error {
			return core.WriteDarkFeeSection(w, req.pool, req.sppeShow, cands)
		})
	},
	"divergence": func(aud *core.Auditor, req *auditReq) (*payload, error) {
		rep := aud.AuditDivergence(req.div)
		p := &payload{}
		if len(rep.Sources) == 0 {
			p.Notes = []string{"divergence audit: no attributed observation sources"}
		} else {
			flagged := "none"
			if f := rep.FlaggedSources(); len(f) > 0 {
				flagged = strings.Join(f, ",")
			}
			p.Notes = []string{fmt.Sprintf("divergence: %d sources, %d multi-source transactions, flagged: %s",
				len(rep.Sources), rep.SharedTxs, flagged)}
			tables := []*report.Table{core.DivergenceTable(rep)}
			if len(rep.Pairs) > 0 {
				tables = append(tables, core.DivergencePairTable(rep))
			}
			if err := p.addTables(tables...); err != nil {
				return nil, err
			}
		}
		return p, renderInto(p, func(w io.Writer) error { return core.WriteDivergenceSection(w, rep) })
	},
}

func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	kind := r.PathValue("kind")
	env := Envelope{Kind: "audit", Name: kind}
	q := r.URL.Query()
	fmtName, err := format(q, false)
	if err != nil {
		fail(w, http.StatusBadRequest, env, err)
		return
	}
	runner, ok := auditRunners[kind]
	if !ok {
		fail(w, http.StatusNotFound, env, fmt.Errorf("unknown audit %q (ppe, selfinterest, lowfee, scam, darkfee, divergence)", kind))
		return
	}
	set, err := s.lookupSet(q.Get("dataset"))
	if err != nil {
		fail(w, http.StatusNotFound, env, err)
		return
	}
	// Snapshot the set's provenance under its read lock: streaming sets
	// rotate fingerprints on append, and the cache key must match the
	// envelope. retained is the retained record count at that fingerprint.
	set.mu.RLock()
	fp, retained, _ := set.provenance()
	env.Dataset = set.name
	env.Fingerprint = fp
	env.Degraded = set.degraded
	set.mu.RUnlock()
	req, params, err := parseAudit(kind, q)
	if err != nil {
		fail(w, http.StatusBadRequest, env, err)
		return
	}
	env.Params = params
	wd, err := s.timeout(q)
	if err != nil {
		fail(w, http.StatusBadRequest, env, err)
		return
	}
	// The key names the effective window, not the caller's spelling: no
	// window, window=0 and any window covering every retained record all
	// audit the full set (Auditor.Last) and share one entry. The envelope
	// still echoes the caller's own params.
	keyParts := []string{env.Fingerprint, "audit=" + kind}
	for _, k := range sortedKeys(params) {
		if k != "window" {
			keyParts = append(keyParts, k+"="+params[k])
		}
	}
	if req.window > 0 && req.window < retained {
		keyParts = append(keyParts, "window="+strconv.Itoa(req.window))
	}
	key := obs.ConfigHash(keyParts...)
	t := startTimer()
	p, hit, err := s.cache.do(key, func() (*payload, error) {
		return s.runBounded(r.Context(), wd, func(ctx context.Context) (*payload, error) {
			bounded := *req
			bounded.opts.Ctx = ctx
			// Audits read the set's (possibly streaming) index under the
			// read lock, serialized against ingest appends.
			set.mu.RLock()
			defer set.mu.RUnlock()
			if _, windowed := params["window"]; windowed {
				defer mReaudit.Time()()
			}
			return runner(set.aud.Last(bounded.window), &bounded)
		})
	})
	env.ElapsedMS = t.ms()
	if err != nil {
		fail(w, errStatus(err), env, err)
		return
	}
	env.Cached = hit
	writeResult(w, fmtName, env, p)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
