package serve

// Audit read-path tests on one streaming set: an audit's envelope names the
// state its bytes came from even while ingest rotates the fingerprint, and
// an ingest retires the set's superseded cache entries.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestAuditRacingIngestNamesItsState races one-block ingests against audits
// of the same streaming set, over a few fresh sets. Every audit response
// must carry exactly the bytes a fresh audit of a replica, replayed to the
// response's fingerprint, produces: an ingest landing between the
// fingerprint read and the audit would pair one state's fingerprint with
// the next state's bytes.
func TestAuditRacingIngestNamesItsState(t *testing.T) {
	s, c, _ := streamFixture(t)
	replica, _, _ := streamFixture(t)
	blocks := c.Blocks()
	if len(blocks) > 24 {
		blocks = blocks[:24]
	}
	ingest := func(h http.Handler, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/ingest", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr
	}
	for round := 0; round < 4; round++ {
		name := fmt.Sprintf("live%d", round)
		target := "/v1/audits/ppe?format=text&dataset=" + name
		bodies := make([][]byte, len(blocks))
		for i, b := range blocks {
			raw, err := json.Marshal(IngestRequest{Dataset: name, Blocks: []BlockFrame{FrameBlock(b)}})
			if err != nil {
				t.Fatal(err)
			}
			bodies[i] = raw
		}

		// The replica applies the same batches one at a time, with a fresh
		// audit after each: the text every fingerprint must answer with.
		want := map[string]string{}
		for i, body := range bodies {
			rr := ingest(replica.Handler(), body)
			if rr.Code != http.StatusOK {
				t.Fatalf("replica ingest %d = %d: %s", i, rr.Code, rr.Body.String())
			}
			fp := decode[IngestResponse](t, rr).Fingerprint
			want[fp] = textBody(t, replica.Handler(), target)
		}

		type answer struct{ fp, text string }
		h := s.Handler()
		var (
			wg      sync.WaitGroup
			mu      sync.Mutex
			answers []answer
			fails   []string
		)
		done := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done)
			for _, body := range bodies {
				if rr := ingest(h, body); rr.Code != http.StatusOK {
					mu.Lock()
					fails = append(fails, "ingest: "+rr.Body.String())
					mu.Unlock()
					return
				}
			}
		}()
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					rr := do(t, h, "POST", target)
					if rr.Code == http.StatusNotFound {
						continue // the set is created by the first ingest
					}
					mu.Lock()
					if rr.Code != http.StatusOK {
						fails = append(fails, "audit: "+rr.Body.String())
					} else {
						answers = append(answers, answer{rr.Header().Get("X-Chainaudit-Fingerprint"), rr.Body.String()})
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		for _, f := range fails {
			t.Error(f)
		}
		if len(answers) == 0 {
			t.Fatalf("%s: no audit answered while ingest ran", name)
		}
		for i, a := range answers {
			text, ok := want[a.fp]
			if !ok {
				t.Fatalf("%s: answer %d names fingerprint %q, which no replica state has", name, i, a.fp)
			}
			if a.text != text {
				t.Fatalf("%s: answer %d at fingerprint %s differs from a fresh audit of the replica at that state", name, i, a.fp)
			}
		}
	}
}

// TestIngestRetiresCacheEntries audits a streaming set between K
// fingerprint rotations: afterwards the cache holds the current
// fingerprint's entry alone (and a batch set's entries untouched), and a
// repeated audit at one fingerprint is still a hit.
func TestIngestRetiresCacheEntries(t *testing.T) {
	const k = 6
	s, c, _ := streamFixture(t)
	h := s.Handler()
	blocks := c.Blocks()
	if len(blocks) <= k {
		t.Fatal("fixture too small")
	}
	audit := func(target string) Envelope {
		t.Helper()
		rr := do(t, h, "POST", target)
		if rr.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", target, rr.Code, rr.Body.String())
		}
		return decode[Envelope](t, rr)
	}
	audit("/v1/audits/ppe?dataset=main")
	for i := 0; i <= k; i++ {
		req := IngestRequest{Dataset: "live", Blocks: []BlockFrame{FrameBlock(blocks[i])}}
		if rr := postJSON(t, h, "/v1/ingest", req); rr.Code != http.StatusOK {
			t.Fatalf("ingest %d = %d: %s", i, rr.Code, rr.Body.String())
		}
		if env := audit("/v1/audits/ppe?dataset=live"); env.Cached {
			t.Fatalf("rotation %d: first audit at a new fingerprint was a hit", i)
		}
		audit("/v1/audits/lowfee?dataset=live")
		if env := audit("/v1/audits/ppe?dataset=live"); !env.Cached {
			t.Fatalf("rotation %d: repeated audit at one fingerprint was not a hit", i)
		}
	}
	// One more rotation, then one audit: only its entry may remain.
	req := IngestRequest{Dataset: "live", Blocks: []BlockFrame{FrameBlock(blocks[k+1])}}
	if rr := postJSON(t, h, "/v1/ingest", req); rr.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", rr.Code, rr.Body.String())
	}
	env := audit("/v1/audits/ppe?dataset=live")
	s.cache.mu.Lock()
	live, main := s.cache.entries["live"], s.cache.entries["main"]
	s.cache.mu.Unlock()
	if _, ok := live[auditKey(env.Fingerprint, "ppe", env.Params, 0, 0)]; len(live) != 1 || !ok {
		t.Errorf("live set keeps %d cache entries after %d rotations, want the current fingerprint's one", len(live), k+2)
	}
	if len(main) != 1 {
		t.Errorf("batch set keeps %d cache entries, want 1", len(main))
	}
	if !audit("/v1/audits/ppe?dataset=live").Cached {
		t.Error("repeated audit after the last rotation was not a hit")
	}
}
