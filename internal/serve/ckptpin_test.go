package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCheckpointBytesPinned pins what a durable two-source stream writes
// and what it restores to. Source s1 ships the fixture chain with a
// snapshot per batch; after each s1 batch, s2 ships the same snapshot two
// seconds late, with a sub-second spread, missing every fifth transaction.
// Every checkpoint the stream writes must have the sha256 pinned below, and
// a restart over the stream directory — which restores the last checkpoint
// and replays no line — must answer with the pinned fingerprint and
// divergence text. The pins were computed by this test at the commit
// before the arrival ledger lost its maps, so a checkpoint from that commit
// is byte for byte one these runs write, and it restores to the same state.
func TestCheckpointBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name    string
		retain  int
		ckpts   map[string]string
		fp, div string
	}{
		{"unbounded", 0, map[string]string{
			"live.ckpt.1": "0d255fbb01d9523b3b2d0645f6e3b81a9172d651b41d9b039859069200e6adee",
			"live.ckpt.2": "c4fc52699f8b1512eee0e58f3b3c53ddaad027a4b7c73923e61aac01074c6caa",
			"live.ckpt.3": "4de909890c0c8389300e675465743a8ab65df3894c29355abef40d7f359f9266",
			"live.ckpt.4": "b8f723a1d01fda1c77747ff3e5b2879b54b7e572b6e8bc1bca7f318bd60041fe",
			"live.ckpt.5": "858d0c81b295b0f7c9d1eb5b88bdd284054f9184006eeed84242468985339dbc",
		}, "3f0087fd6f6037f7", "e8f9cb58f1153ac594783809065b3bb904ca81d81f414ff67df61dea3b4dc90b"},
		{"retain=3", 3, map[string]string{
			"live.ckpt.1": "b9b289e5597abb8d8189d26b0c1f72c59adbee4845d2a327325dc2fba8cefae8",
			"live.ckpt.2": "2f2e4cdc3744c83d4845681a41a44eff7cb304423dcd0aa3eed9ba33fd7c29e6",
			"live.ckpt.3": "ae39de3ad3e3ed3c038d3843d09eaf5d4045785b0d1d5e8c1069983583d4c467",
			"live.ckpt.4": "0f67a516ab8a3c90c166ffc1c69a1129b8b219ac066679ed9cac3cf30d42d49b",
			"live.ckpt.5": "17245ced83fbedc30c22611700bfe6c8043d166e8617b1d2a8c2178469e4263d",
		}, "3f0087fd6f6037f7", "15654032ba1da4286a7ff0d7101f8d40ff2da0f726d1397b07c946e62fdff3e5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			durable := func(cfg *Config) {
				cfg.StreamDir = dir
				cfg.StreamRetain = tc.retain
				cfg.CheckpointEvery = 2
			}
			s, c, _ := streamFixtureCfg(t, durable)
			var reqs []IngestRequest
			for _, req := range mkIngestBatches(c, "live", 4) {
				req.Source = "s1"
				lagged := IngestRequest{Dataset: "live", Source: "s2"}
				for _, snap := range req.Mempool {
					late := SnapshotFrame{TimeNS: snap.TimeNS + 2e9, TipHeight: snap.TipHeight}
					for j, tx := range snap.Txs {
						if j%5 == 4 {
							continue
						}
						late.Txs = append(late.Txs, SnapshotTx{ID: tx.ID, FirstSeenNS: tx.FirstSeenNS + 2e9 + int64(j%3)*1e8})
					}
					lagged.Mempool = append(lagged.Mempool, late)
				}
				reqs = append(reqs, req, lagged)
			}
			// Each checkpoint is read as soon as it is written: a later seal
			// deletes what the newer checkpoint covers.
			digests := map[string]string{}
			for i, req := range reqs {
				if rr := postJSON(t, s.Handler(), "/v2/ingest", req); rr.Code != http.StatusOK {
					t.Fatalf("ingest %d = %d: %s", i, rr.Code, rr.Body.String())
				}
				settleWrites(t, s)
				paths, err := filepath.Glob(filepath.Join(dir, "live.ckpt.*"))
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range paths {
					if _, ok := digests[filepath.Base(p)]; ok {
						continue
					}
					raw, err := os.ReadFile(p)
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(raw)
					digests[filepath.Base(p)] = hex.EncodeToString(sum[:])
				}
			}
			if !reflect.DeepEqual(digests, tc.ckpts) {
				t.Errorf("checkpoint digests = %#v, want %#v", digests, tc.ckpts)
			}
			fp, div := divergenceState(t, s)
			if fp != tc.fp || div != tc.div {
				t.Errorf("live state: fingerprint %q, divergence text sha256 %q; want %q, %q", fp, div, tc.fp, tc.div)
			}

			// kill -9 and restart: the last checkpoint covers every line.
			back, _, _ := streamFixtureCfg(t, durable)
			hz, i := healthFor(t, back.Handler(), "live")
			if rec := hz.Datasets[i].Recovery; rec == nil || rec.CheckpointBlocks == 0 || rec.WALLines != 0 {
				t.Fatalf("recovery = %+v, want a checkpoint restore and no replayed line", rec)
			}
			if fp, div := divergenceState(t, back); fp != tc.fp || div != tc.div {
				t.Errorf("restored state: fingerprint %q, divergence text sha256 %q; want %q, %q", fp, div, tc.fp, tc.div)
			}
		})
	}
}

// divergenceState returns the live set's fingerprint, as its divergence
// audit envelope names it, and the sha256 of the audit's text.
func divergenceState(t *testing.T, s *Server) (fp, textSum string) {
	t.Helper()
	rr := do(t, s.Handler(), "POST", "/v1/audits/divergence?dataset=live")
	if rr.Code != http.StatusOK {
		t.Fatalf("divergence = %d: %s", rr.Code, rr.Body.String())
	}
	env := decode[struct {
		Fingerprint string `json:"fingerprint"`
	}](t, rr)
	sum := sha256.Sum256([]byte(textBody(t, s.Handler(), "/v1/audits/divergence?dataset=live&format=text")))
	return env.Fingerprint, hex.EncodeToString(sum[:])
}
