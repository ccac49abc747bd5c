package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"chainaudit/internal/core"
	"chainaudit/internal/dataset"
	"chainaudit/internal/experiments"
)

// One shared server fixture: the suite build is the expensive part, so every
// test runs against the same loaded service (exactly how production uses it
// — many requests, one load).
var (
	fixOnce sync.Once
	fixSrv  *Server
	fixErr  error
)

const (
	fixSeed  = 5
	fixScale = 0.1
)

func testServer(t *testing.T) *Server {
	t.Helper()
	fixOnce.Do(func() {
		fixSrv, fixErr = New(Config{Sim: true, Seed: fixSeed, Scale: fixScale})
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixSrv
}

func do(t *testing.T, h http.Handler, method, target string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, target, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func decode[T any](t *testing.T, rr *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rr.Body.Bytes(), &v); err != nil {
		t.Fatalf("bad JSON body: %v\n%s", err, rr.Body.String())
	}
	return v
}

func TestHealthz(t *testing.T) {
	s := testServer(t)
	rr := do(t, s.Handler(), "GET", "/v1/healthz")
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rr.Code)
	}
	resp := decode[struct {
		API      string `json:"api"`
		Status   string `json:"status"`
		Datasets []struct {
			Name        string `json:"name"`
			Fingerprint string `json:"fingerprint"`
			Blocks      int    `json:"blocks"`
			Degraded    bool   `json:"degraded"`
		} `json:"datasets"`
		Experiments int `json:"experiments"`
	}](t, rr)
	if resp.API != API || resp.Status != "ok" {
		t.Errorf("envelope = %+v", resp)
	}
	if len(resp.Datasets) != 3 {
		t.Fatalf("datasets = %+v", resp.Datasets)
	}
	for i, want := range []string{"A", "B", "C"} {
		ds := resp.Datasets[i]
		if ds.Name != want || ds.Fingerprint == "" || ds.Blocks == 0 || ds.Degraded {
			t.Errorf("dataset %d = %+v, want clean %s", i, ds, want)
		}
	}
	if resp.Experiments != len(experiments.All()) {
		t.Errorf("experiments = %d, want %d", resp.Experiments, len(experiments.All()))
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t)
	rr := do(t, s.Handler(), "GET", "/v1/metrics")
	if rr.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rr.Code)
	}
	resp := decode[struct {
		API     string `json:"api"`
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}](t, rr)
	if resp.Metrics.Counters["serve.requests"] == 0 {
		t.Error("metrics snapshot missing serve.requests")
	}
}

func TestExperimentListMatchesRegistry(t *testing.T) {
	s := testServer(t)
	rr := do(t, s.Handler(), "GET", "/v1/experiments")
	if rr.Code != http.StatusOK {
		t.Fatalf("list = %d", rr.Code)
	}
	resp := decode[struct {
		Available   bool `json:"available"`
		Experiments []struct {
			ID     string `json:"id"`
			Title  string `json:"title"`
			Params []struct {
				Name string `json:"name"`
			} `json:"params"`
		} `json:"experiments"`
		SuiteParams []struct {
			Name string `json:"name"`
		} `json:"suite_params"`
	}](t, rr)
	if !resp.Available {
		t.Error("suite-backed server lists experiments as unavailable")
	}
	all := experiments.All()
	if len(resp.Experiments) != len(all) {
		t.Fatalf("listed %d experiments, registry has %d", len(resp.Experiments), len(all))
	}
	for i, d := range all {
		if resp.Experiments[i].ID != d.ID || resp.Experiments[i].Title != d.Title {
			t.Errorf("position %d: listed %+v, registry %q/%q", i, resp.Experiments[i], d.ID, d.Title)
		}
	}
	if len(resp.SuiteParams) == 0 {
		t.Error("no suite params listed")
	}
}

// TestExperimentTextMatchesCLIPath proves a service text response is
// byte-identical to what cmd/reproduce prints for the same experiment and
// suite (the CLI renders through the same registry + sink the service
// replays).
func TestExperimentTextMatchesCLIPath(t *testing.T) {
	s := testServer(t)
	for _, id := range []string{"table1", "fig2", "fig7"} {
		rr := do(t, s.Handler(), "POST", "/v1/experiments/"+id+"?format=text")
		if rr.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", id, rr.Code, rr.Body.String())
		}
		d, _ := experiments.ByName(id)
		var want bytes.Buffer
		if err := d.Run(s.suite, experiments.NewTextSink(&want, false)); err != nil {
			t.Fatal(err)
		}
		if rr.Body.String() != want.String() {
			t.Errorf("%s text diverged from CLI render:\ngot  %q\nwant %q", id, rr.Body.String(), want.String())
		}
	}
}

func TestExperimentJSONEnvelope(t *testing.T) {
	s := testServer(t)
	rr := do(t, s.Handler(), "POST", "/v1/experiments/fig7")
	if rr.Code != http.StatusOK {
		t.Fatalf("fig7 = %d: %s", rr.Code, rr.Body.String())
	}
	env := decode[Envelope](t, rr)
	if env.API != API || env.Kind != "experiment" || env.Name != "fig7" {
		t.Errorf("envelope = %+v", env)
	}
	if env.Fingerprint == "" || env.Degraded {
		t.Errorf("provenance = fingerprint %q degraded %t", env.Fingerprint, env.Degraded)
	}
	if len(env.Notes) != 1 || !strings.HasPrefix(env.Notes[0], "PPE overall:") {
		t.Errorf("notes = %v", env.Notes)
	}
	if len(env.Results) != 1 {
		t.Fatalf("results = %d", len(env.Results))
	}
	var fig struct {
		Kind  string `json:"kind"`
		Title string `json:"title"`
	}
	if err := json.Unmarshal(env.Results[0], &fig); err != nil {
		t.Fatal(err)
	}
	if fig.Kind != "figure" || !strings.Contains(fig.Title, "position prediction error") {
		t.Errorf("result = %+v", fig)
	}
}

// TestAuditTextMatchesCLISection proves audit text responses are
// byte-identical to the sections cmd/chainaudit prints for the same chain
// and parameters (both go through core's AuditOptions API and section
// renderers).
func TestAuditTextMatchesCLISection(t *testing.T) {
	s := testServer(t)
	aud := s.sets["C"].aud
	cases := []struct {
		url  string
		want func(w io.Writer) error
	}{
		{"/v1/audits/ppe?format=text", func(w io.Writer) error {
			return core.WritePPESection(w, aud.AuditPPE(core.AuditOptions{}))
		}},
		{"/v1/audits/selfinterest?format=text", func(w io.Writer) error {
			rep, err := aud.AuditSelfInterest(core.AuditOptions{})
			if err != nil {
				return err
			}
			return core.WriteSelfInterestSection(w, rep)
		}},
		{"/v1/audits/lowfee?format=text", func(w io.Writer) error {
			return core.WriteLowFeeSection(w, aud.AuditLowFee(core.AuditOptions{}))
		}},
		{"/v1/audits/darkfee?format=text&pool=BTC.com&sppe=90", func(w io.Writer) error {
			cands := aud.AuditDarkFee("BTC.com", core.AuditOptions{SPPE: 90})
			return core.WriteDarkFeeSection(w, "BTC.com", 90, cands)
		}},
		{"/v1/audits/scam?format=text&address=no-such-address", func(w io.Writer) error {
			return core.WriteScamSection(w, "no-such-address", 0, nil)
		}},
	}
	for _, tc := range cases {
		rr := do(t, s.Handler(), "POST", tc.url)
		if rr.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", tc.url, rr.Code, rr.Body.String())
		}
		var want bytes.Buffer
		if err := tc.want(&want); err != nil {
			t.Fatal(err)
		}
		if rr.Body.String() != want.String() {
			t.Errorf("%s diverged from CLI section:\ngot  %q\nwant %q", tc.url, rr.Body.String(), want.String())
		}
	}
}

func TestAuditJSONAndCacheFlag(t *testing.T) {
	// A fresh server: the shared one's result cache keeps every earlier
	// run's entries, so a repeat run (-count) would find the "different
	// params" request already cached.
	s, err := New(Config{Sim: true, Seed: fixSeed, Scale: fixScale})
	if err != nil {
		t.Fatal(err)
	}
	url := "/v1/audits/ppe?dataset=A"
	first := decode[Envelope](t, do(t, s.Handler(), "POST", url))
	if first.Kind != "audit" || first.Name != "ppe" || first.Dataset != "A" {
		t.Errorf("envelope = %+v", first)
	}
	if len(first.Results) != 1 || len(first.Notes) != 1 {
		t.Fatalf("results/notes = %d/%d", len(first.Results), len(first.Notes))
	}
	second := decode[Envelope](t, do(t, s.Handler(), "POST", url))
	if !second.Cached {
		t.Error("repeat request not served from cache")
	}
	if !bytes.Equal(first.Results[0], second.Results[0]) {
		t.Error("cached result differs from computed result")
	}
	// Different params miss the cache.
	other := decode[Envelope](t, do(t, s.Handler(), "POST", url+"&minshare=0.10"))
	if other.Cached {
		t.Error("different params served from cache")
	}
}

func TestUnknownTargetsAndBadParams(t *testing.T) {
	s := testServer(t)
	for _, tc := range []struct {
		method, url string
		code        int
	}{
		{"POST", "/v1/audits/nonsense", http.StatusNotFound},
		{"POST", "/v1/experiments/fig99", http.StatusNotFound},
		{"POST", "/v1/audits/ppe?dataset=Z", http.StatusNotFound},
		{"POST", "/v1/audits/scam", http.StatusBadRequest},
		{"POST", "/v1/audits/darkfee", http.StatusBadRequest},
		{"POST", "/v1/audits/ppe?minshare=bogus", http.StatusBadRequest},
		{"POST", "/v1/audits/ppe?format=csv", http.StatusBadRequest},
		{"POST", "/v1/audits/ppe?timeout_ms=-4", http.StatusBadRequest},
		// Parameters that are not finite, or that overflow a Duration, would
		// otherwise turn into a threshold or timeout nobody asked for.
		{"POST", "/v1/audits/ppe?timeout_ms=9300000000000", http.StatusBadRequest},
		{"POST", "/v1/audits/ppe?minshare=NaN", http.StatusBadRequest},
		{"POST", "/v1/audits/ppe?minshare=Inf", http.StatusBadRequest},
		{"POST", "/v1/audits/darkfee?pool=BTC.com&sppe=NaN", http.StatusBadRequest},
		{"POST", "/v1/audits/darkfee?pool=BTC.com&sppe=-Inf", http.StatusBadRequest},
		{"POST", "/v1/audits/divergence?threshold_ms=1e13", http.StatusBadRequest},
		{"POST", "/v1/audits/divergence?threshold_ms=NaN", http.StatusBadRequest},
		{"POST", "/v1/audits/divergence?threshold_ms=Inf", http.StatusBadRequest},
		{"POST", "/v1/audits/divergence?threshold_ms=-Inf", http.StatusBadRequest},
		{"POST", "/v1/audits/divergence?threshold_ms=1e308", http.StatusBadRequest},
		{"GET", "/v1/audits/ppe", http.StatusMethodNotAllowed},
	} {
		rr := do(t, s.Handler(), tc.method, tc.url)
		if rr.Code != tc.code {
			t.Errorf("%s %s = %d, want %d (%s)", tc.method, tc.url, rr.Code, tc.code, rr.Body.String())
		}
	}
}

// TestConcurrentMixedRequests drives 32 concurrent requests of every kind
// through one server. Run with -race (the Makefile's serve gate does), this
// is the shared-index safety proof the design leans on.
func TestConcurrentMixedRequests(t *testing.T) {
	s := testServer(t)
	targets := []struct {
		method, url string
	}{
		{"GET", "/v1/healthz"},
		{"GET", "/v1/metrics"},
		{"GET", "/v1/experiments"},
		{"POST", "/v1/experiments/table1"},
		{"POST", "/v1/experiments/fig2?format=text"},
		{"POST", "/v1/experiments/norm3?format=csv"},
		{"POST", "/v1/audits/ppe"},
		{"POST", "/v1/audits/ppe?dataset=A"},
		{"POST", "/v1/audits/ppe?dataset=B"},
		{"POST", "/v1/audits/lowfee?format=text"},
		{"POST", "/v1/audits/selfinterest"},
		{"POST", "/v1/audits/darkfee?pool=BTC.com"},
	}
	const n = 32
	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tc := targets[i%len(targets)]
			rr := do(t, s.Handler(), tc.method, tc.url)
			codes[i] = rr.Code
			bodies[i] = rr.Body.String()
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("request %d (%s) = %d: %s", i, targets[i%len(targets)].url, code, bodies[i])
		}
	}
}

// TestWatchdogTimeoutReturns504 proves a request exceeding its watchdog gets
// a clean 504 envelope and that the server keeps serving afterwards — the
// abandoned computation never wedges the executor.
func TestWatchdogTimeoutReturns504(t *testing.T) {
	// Own server so the tight default watchdog doesn't leak into other
	// tests; the data sets come from the process-local cache, so this does
	// not re-simulate.
	s, err := New(Config{Sim: true, Seed: fixSeed, Scale: fixScale, Watchdog: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	rr := do(t, s.Handler(), "POST", "/v1/audits/selfinterest?minshare=0.30")
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("tight watchdog = %d, want 504: %s", rr.Code, rr.Body.String())
	}
	env := decode[Envelope](t, rr)
	if env.Error == "" || !strings.Contains(env.Error, "watchdog") {
		t.Errorf("504 envelope error = %q", env.Error)
	}
	// The same request with a generous per-request override now succeeds:
	// the failed attempt was not cached and the pool is not wedged.
	ok := do(t, s.Handler(), "POST", "/v1/audits/selfinterest?minshare=0.30&timeout_ms=60000")
	if ok.Code != http.StatusOK {
		t.Fatalf("post-timeout request = %d: %s", ok.Code, ok.Body.String())
	}
	if decode[Envelope](t, ok).Cached {
		t.Error("failed attempt was cached")
	}
	// And an experiment under the tight default also 504s cleanly.
	exp := do(t, s.Handler(), "POST", "/v1/experiments/table1")
	if exp.Code != http.StatusGatewayTimeout {
		t.Errorf("experiment under tight watchdog = %d", exp.Code)
	}
}

// TestCSVDatasetServer loads a chain CSV (cmd/gendata's output format) and
// checks the audit response matches the batch CLI's section for that file,
// plus graceful handling of a server with no simulated suite.
func TestCSVDatasetServer(t *testing.T) {
	ds, err := dataset.Cached(dataset.BuilderC, dataset.Options{Seed: 11, Duration: 4 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "chain.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteChainCSV(f, ds.Result.Chain); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{Chains: []ChainSpec{{Name: "main", Path: path}}})
	if err != nil {
		t.Fatal(err)
	}
	rr := do(t, s.Handler(), "POST", "/v1/audits/ppe?format=text")
	if rr.Code != http.StatusOK {
		t.Fatalf("ppe = %d: %s", rr.Code, rr.Body.String())
	}
	var want bytes.Buffer
	if err := core.WritePPESection(&want, core.NewAuditor(ds.Result.Chain).AuditPPE(core.AuditOptions{})); err != nil {
		t.Fatal(err)
	}
	if rr.Body.String() != want.String() {
		t.Errorf("CSV-backed audit diverged from CLI section:\ngot  %q\nwant %q", rr.Body.String(), want.String())
	}

	// No suite: experiments refuse politely, health stays ok.
	if rr := do(t, s.Handler(), "POST", "/v1/experiments/table1"); rr.Code != http.StatusBadRequest {
		t.Errorf("experiment without suite = %d", rr.Code)
	}
	h := decode[struct {
		Status   string `json:"status"`
		Datasets []struct {
			Name string `json:"name"`
		} `json:"datasets"`
		Experiments int `json:"experiments"`
	}](t, do(t, s.Handler(), "GET", "/v1/healthz"))
	if h.Status != "ok" || len(h.Datasets) != 1 || h.Datasets[0].Name != "main" || h.Experiments != 0 {
		t.Errorf("health = %+v", h)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Chains: []ChainSpec{{Name: "x", Path: "/no/such/file.csv"}}}); err == nil {
		t.Error("missing CSV accepted")
	}
	if _, err := New(Config{Sim: true, Chaos: "nonsense"}); err == nil {
		t.Error("bad chaos spec accepted")
	}
	if _, err := New(Config{Chains: []ChainSpec{{Name: "", Path: "x"}}}); err == nil {
		t.Error("anonymous chain spec accepted")
	}
}

// TestDegradedCSVServesWithAnnotation appends malformed rows to a valid CSV
// and checks the service quarantines them, flags the data set degraded, and
// still serves audits.
func TestDegradedCSVServesWithAnnotation(t *testing.T) {
	ds, err := dataset.Cached(dataset.BuilderC, dataset.Options{Seed: 11, Duration: 4 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dataset.WriteChainCSV(&buf, ds.Result.Chain); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("garbage,row,that,does,not,parse\n")
	path := filepath.Join(t.TempDir(), "degraded.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Chains: []ChainSpec{{Name: "deg", Path: path}}})
	if err != nil {
		t.Fatal(err)
	}
	env := decode[Envelope](t, do(t, s.Handler(), "POST", "/v1/audits/lowfee"))
	if !env.Degraded {
		t.Error("quarantined data set not flagged degraded")
	}
	h := decode[struct {
		Datasets []struct {
			Degraded bool     `json:"degraded"`
			Notes    []string `json:"notes"`
		} `json:"datasets"`
	}](t, do(t, s.Handler(), "GET", "/v1/healthz"))
	if len(h.Datasets) != 1 || !h.Datasets[0].Degraded || len(h.Datasets[0].Notes) == 0 {
		t.Errorf("health = %+v", h)
	}
	if !strings.Contains(fmt.Sprint(h.Datasets[0].Notes), "quarantined") {
		t.Errorf("notes = %v", h.Datasets[0].Notes)
	}
}
