package observer

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"chainaudit/internal/faults"
	"chainaudit/internal/serve"
	"chainaudit/internal/stats"
	"chainaudit/internal/stream"
)

// IndexSink applies batches in process to a streaming set through the
// set's one apply path, stream.Set.Apply, and serve's one decoder,
// serve.DecodeBatch — the path chainauditd's ingest and WAL recovery take —
// so an in-process run and an HTTP run over the same event stream land on
// identical audit state and fingerprint. Decoding builds fresh blocks, so
// the set never shares a block with the source that produced it. Several
// sinks may share one set, one per observation source: each trims the
// blocks the set already holds, under the set's lock, which is the
// in-process form of HTTPSink's covered trim. A single sink never trims,
// because Run already drops stale heights. Audit the set's index through
// core.NewIndexedAuditor.
type IndexSink struct {
	Set *stream.Set
	// Source attributes this sink's snapshot observations to a named
	// vantage point in the set's per-source ledger; empty merges
	// anonymously (the single-observer behavior).
	Source string
}

// Apply applies the batch; the first unappendable block fails it, like the
// service's 409.
func (s *IndexSink) Apply(ctx context.Context, b *Batch) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	req := b.Request("")
	req.Source = s.Source
	s.Set.Lock()
	defer s.Set.Unlock()
	if covered, _, ok := s.Set.Watermark(); ok {
		trimBlocks(&req, covered)
	}
	sb, err := serve.DecodeBatch(&req)
	if err != nil {
		return err
	}
	_, err = s.Set.Apply(sb)
	return err
}

// HTTPSink ships batches to a running chainauditd's POST /v1/ingest with
// retry and jittered exponential backoff. Transport failures reconnect and
// retry; semantic rejections (400/409) are permanent — except when the
// response watermark shows the service already holds some or all of the
// batch's blocks (a duplicate delivery after a retry, reconnect, or server
// restart). Covered blocks are trimmed and the remainder — always including
// the batch's mempool snapshot frames, which a rejecting delivery skips —
// is re-sent, so a duplicate block delivery never loses snapshots.
//
// After a chainauditd restart, SyncWatermark primes the sink with the
// service's recovered ingest height so fully covered batches are skipped
// without a round trip.
//
// An optional faults injector rehearses a flaky observer link: dropped
// attempts become transport failures, delays hold the request back, and
// duplicates ship the batch twice (the second delivery exercising the
// covered-trim path).
type HTTPSink struct {
	URL     string // chainauditd base URL
	Dataset string
	// Source attributes every shipped snapshot frame to a named vantage
	// point. A non-empty Source ships through POST /v2/ingest with the
	// request-level source field set; empty ships through POST /v1/ingest,
	// byte-identical to the pre-attribution sink.
	Source string
	// Client overrides the HTTP client; nil uses a private client with a
	// 30s timeout (never http.DefaultClient, which hangs forever on a
	// wedged server).
	Client *http.Client
	// MaxRetries bounds retry attempts after the first (default 4).
	MaxRetries int
	// Backoff is the initial retry delay (default 100ms), doubling per
	// attempt and capped at 2s. Each wait is equal-jittered: half fixed,
	// half drawn from a deterministic seeded stream, so herds of observers
	// hammering a restarted server desynchronize reproducibly.
	Backoff time.Duration
	// Seed seeds the backoff jitter stream (default 1). Same seed, same
	// jitter sequence — retry timing stays replayable under test.
	Seed   uint64
	Faults *faults.P2PInjector

	// Last is the most recent accepted ingest response, for driver reports.
	Last serve.IngestResponse

	// covered is the highest block height the service has durably
	// acknowledged (from SyncWatermark, response watermarks, or covered
	// rejections); blocks at or below it are already applied server-side,
	// so they are trimmed before the first post. Another source's blocks
	// can raise it, so it says nothing about this sink's snapshots.
	covered   int64
	coveredOK bool
	// resumed is the watermark SyncWatermark read: this sink's feed up to
	// it was applied in full, snapshots included, so whole batches at or
	// below it are skipped.
	resumed   int64
	resumedOK bool
	fallback  *http.Client
	jitter    *stats.RNG
}

func (s *HTTPSink) client() *http.Client {
	if s.Client != nil {
		return s.Client
	}
	if s.fallback == nil {
		s.fallback = &http.Client{Timeout: 30 * time.Second}
	}
	return s.fallback
}

func (s *HTTPSink) retries() int {
	if s.MaxRetries > 0 {
		return s.MaxRetries
	}
	return 4
}

func (s *HTTPSink) backoff(attempt int) time.Duration {
	d := s.Backoff
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= 2*time.Second {
			d = 2 * time.Second
			break
		}
	}
	if s.jitter == nil {
		seed := s.Seed
		if seed == 0 {
			seed = 1
		}
		s.jitter = stats.NewRNG(seed)
	}
	half := d / 2
	return half + time.Duration(s.jitter.Float64()*float64(half))
}

// SyncWatermark asks the service (GET /v1/healthz) for the dataset's
// current ingest watermark — after a chainauditd restart, the height its WAL
// recovery reached — and primes the sink to skip batches the service already
// holds. It reports the height and whether the dataset exposed one; a
// missing dataset or watermark is not an error (the sink just resumes
// without a skip horizon).
func (s *HTTPSink) SyncWatermark(ctx context.Context) (int64, bool, error) {
	endpoint := strings.TrimSuffix(s.URL, "/") + "/v1/healthz"
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, endpoint, nil)
	if err != nil {
		return 0, false, err
	}
	hresp, err := s.client().Do(hreq)
	if err != nil {
		return 0, false, err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return 0, false, fmt.Errorf("observer: healthz returned %d", hresp.StatusCode)
	}
	var resp struct {
		Datasets []struct {
			Name      string `json:"name"`
			Watermark *struct {
				Height int64 `json:"height"`
			} `json:"watermark"`
		} `json:"datasets"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		return 0, false, err
	}
	for _, d := range resp.Datasets {
		if d.Name == s.Dataset && d.Watermark != nil {
			s.resumed, s.resumedOK = d.Watermark.Height, true
			s.extendCovered(d.Watermark.Height)
			return d.Watermark.Height, true, nil
		}
	}
	return 0, false, nil
}

// extendCovered ratchets the durable watermark forward.
func (s *HTTPSink) extendCovered(h int64) {
	if !s.coveredOK || h > s.covered {
		s.covered, s.coveredOK = h, true
	}
}

// Apply ships one batch, retrying transport failures until the retry budget
// is spent and trimming blocks the service already holds.
func (s *HTTPSink) Apply(ctx context.Context, b *Batch) error {
	if h := b.maxHeight(); h >= 0 && s.resumedOK && h <= s.resumed {
		// Ingest applied the whole request — snapshots included — before
		// acknowledging, so a batch below the watermark synced at resume is
		// durable server-side in full and needs no delivery at all.
		mSkipped.Inc()
		return nil
	}
	req := b.Request(s.Dataset)
	if s.coveredOK {
		// Blocks the service already holds would only draw a covered
		// rejection; the snapshots still have to land.
		trimBlocks(&req, s.covered)
		if len(req.Blocks) == 0 && len(req.Mempool) == 0 {
			return nil
		}
	}
	version := "/v1/ingest"
	if s.Source != "" {
		req.Source = s.Source
		version = "/v2/ingest"
	}
	body, err := json.Marshal(&req)
	if err != nil {
		return err
	}
	endpoint := strings.TrimSuffix(s.URL, "/") + version
	var lastErr error
	for attempt := 0; attempt <= s.retries(); attempt++ {
		if attempt > 0 {
			mRetries.Inc()
			select {
			case <-time.After(s.backoff(attempt - 1)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		act := s.Faults.Message()
		if act.Delay > 0 {
			select {
			case <-time.After(act.Delay):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if act.Drop {
			// The link ate the request: indistinguishable from a transport
			// failure on our side, so it burns a retry and a reconnect.
			mReconnects.Inc()
			lastErr = fmt.Errorf("observer: injected drop shipping batch at height %d", b.maxHeight())
			continue
		}
		resp, err := s.post(ctx, endpoint, body, &req)
		if err != nil {
			var cov *coveredError
			if errors.As(err, &cov) {
				// The service already holds a prefix (or all) of the blocks
				// but skipped the request's snapshot frames when it rejected.
				// Trim the covered blocks and re-send the remainder so the
				// snapshots still land; the re-send does not burn a retry
				// (trims are bounded by the block count).
				s.extendCovered(cov.height)
				trimBlocks(&req, cov.height)
				if len(req.Blocks) == 0 && len(req.Mempool) == 0 {
					s.Last = *cov.resp
					return nil // nothing left to deliver: covered in full
				}
				if body, err = json.Marshal(&req); err != nil {
					return err
				}
				mResends.Inc()
				attempt--
				continue
			}
			var fatal *fatalIngestError
			if errors.As(err, &fatal) {
				return fatal.err
			}
			mReconnects.Inc()
			lastErr = err
			continue
		}
		s.Last = *resp
		if resp.Height != nil {
			s.extendCovered(*resp.Height)
		}
		if act.Duplicate {
			// Deliver again; the service already holds these blocks, so the
			// duplicate must come back idempotent-accepted — either an OK or
			// a covered rejection — or the stream protocol regressed.
			if _, err := s.post(ctx, endpoint, body, &req); err != nil {
				var cov *coveredError
				if !errors.As(err, &cov) {
					return fmt.Errorf("observer: duplicate delivery not idempotent: %w", err)
				}
			}
		}
		return nil
	}
	return fmt.Errorf("observer: batch at height %d failed after %d attempts: %w", b.maxHeight(), s.retries()+1, lastErr)
}

// trimBlocks drops every block frame at or below the covered height.
func trimBlocks(req *serve.IngestRequest, covered int64) {
	kept := req.Blocks[:0]
	for _, bf := range req.Blocks {
		if bf.Height > covered {
			kept = append(kept, bf)
		}
	}
	req.Blocks = kept
}

// sentHeights reports the lowest and highest block heights in the request,
// or ok=false for a snapshot-only request.
func sentHeights(req *serve.IngestRequest) (lo, hi int64, ok bool) {
	for i, bf := range req.Blocks {
		if i == 0 || bf.Height < lo {
			lo = bf.Height
		}
		if i == 0 || bf.Height > hi {
			hi = bf.Height
		}
	}
	return lo, hi, len(req.Blocks) > 0
}

// fatalIngestError marks a semantic rejection that retrying cannot fix.
type fatalIngestError struct{ err error }

func (e *fatalIngestError) Error() string { return e.err.Error() }
func (e *fatalIngestError) Unwrap() error { return e.err }

// coveredError reports a rejected delivery whose response watermark shows
// the service already holds the request's leading blocks — duplicate
// delivery, not data loss. The caller trims and re-sends the rest.
type coveredError struct {
	height int64
	resp   *serve.IngestResponse
}

func (e *coveredError) Error() string {
	return fmt.Sprintf("observer: service already holds blocks through height %d", e.height)
}

// post sends one delivery and interprets the service's verdict: OK is
// applied, a rejection whose watermark covers at least the first sent block
// is a coveredError (duplicate delivery — trim and re-send), 5xx is
// retryable, and anything else is fatal.
func (s *HTTPSink) post(ctx context.Context, endpoint string, body []byte, req *serve.IngestRequest) (*serve.IngestResponse, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, endpoint, bytes.NewReader(body))
	if err != nil {
		return nil, &fatalIngestError{err}
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := s.client().Do(hreq)
	if err != nil {
		return nil, err // transport: retryable
	}
	defer hresp.Body.Close()
	var resp serve.IngestResponse
	raw, err := io.ReadAll(hresp.Body)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("observer: bad ingest response (%d): %s", hresp.StatusCode, raw)
	}
	if hresp.StatusCode == http.StatusOK {
		return &resp, nil
	}
	if lo, _, ok := sentHeights(req); ok && resp.Height != nil && *resp.Height >= lo {
		return nil, &coveredError{height: *resp.Height, resp: &resp}
	}
	if hresp.StatusCode >= 500 {
		return nil, fmt.Errorf("observer: ingest unavailable (%d)", hresp.StatusCode) // server trouble: retryable
	}
	return nil, &fatalIngestError{fmt.Errorf("observer: ingest rejected (%d): %s", hresp.StatusCode, resp.Error)}
}

// RecordSink tees every batch's ingest request to a JSONL stream — the
// exact format streamfeed replay consumes — before forwarding it to the
// next sink. Recording a live run and replaying the recording must produce
// identical audit state; smoke-live holds the repo to that.
type RecordSink struct {
	enc     *json.Encoder
	next    Sink
	dataset string
	// Source, when set, stamps each recorded request with a source
	// attribution (the v2 wire field); replaying such a recording needs the
	// v2 endpoint. Empty keeps recordings v1-byte-identical.
	Source string
}

// NewRecordSink tees requests for dataset onto w, then forwards to next.
func NewRecordSink(w io.Writer, dataset string, next Sink) *RecordSink {
	return &RecordSink{enc: json.NewEncoder(w), next: next, dataset: dataset}
}

// Apply writes the batch's request line, then forwards the batch.
func (s *RecordSink) Apply(ctx context.Context, b *Batch) error {
	req := b.Request(s.dataset)
	req.Source = s.Source
	if err := s.enc.Encode(&req); err != nil {
		return err
	}
	return s.next.Apply(ctx, b)
}
