package serve

// The fingerprint is part of the wire contract: result-cache keys,
// checkpoints, and observers all carry it. These tests pin its bytes over a
// hand-built stream, and check that WAL recovery reproduces them and
// reports replayed lines that stop at a conflict.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/obs"
)

// pinnedStream is a small hand-built ingest stream that exercises every
// fingerprint key: v1 blocks and snapshots (one pending transaction with no
// first-seen time of its own, one with an unparseable ID), then v2 batches
// with a request-level source, a per-frame override, and a snapshot-only
// request. It depends on no simulator, so its fingerprint pins the
// rotation bytes themselves.
func pinnedStream() (v1 IngestRequest, v2 []IngestRequest) {
	base := time.Unix(1_600_000_000, 0)
	var blocks []*chain.Block
	var pending [][]*chain.Tx
	for h := int64(0); h < 6; h++ {
		var txs []*chain.Tx
		var fees chain.Amount
		for k := 0; k < 3; k++ {
			fee := chain.Amount(1000 * (k + 1 + int(h)))
			tx := &chain.Tx{
				VSize: 200 + int64(k),
				Fee:   fee,
				Time:  base.Add(time.Duration(h)*10*time.Minute + time.Duration(k)*time.Second),
				Inputs: []chain.TxIn{{
					PrevOut: chain.OutPoint{TxID: chain.TxID{byte(h), byte(k), 0xAB}},
					Address: "sender",
					Value:   chain.BTC + fee,
				}},
				Outputs: []chain.TxOut{{Address: "receiver", Value: chain.BTC}},
			}
			tx.ComputeID()
			txs = append(txs, tx)
			fees += fee
		}
		cb := &chain.Tx{
			VSize:       120,
			Time:        base.Add(time.Duration(h) * 10 * time.Minute),
			Outputs:     []chain.TxOut{{Address: chain.Address("pool-reward"), Value: chain.Subsidy(h) + fees}},
			CoinbaseTag: "/F2Pool/",
		}
		cb.ComputeID()
		b := &chain.Block{Height: h, Time: base.Add(time.Duration(h)*10*time.Minute + 5*time.Minute), Txs: append([]*chain.Tx{cb}, txs...)}
		b.ComputeHash([32]byte{})
		blocks = append(blocks, b)
		pending = append(pending, txs)
	}
	snap := func(h int64, src string, lag time.Duration) SnapshotFrame {
		sf := SnapshotFrame{TimeNS: blocks[h].Time.Add(-time.Minute).UnixNano(), TipHeight: h - 1, Source: src}
		for i, tx := range pending[h] {
			ns := tx.Time.Add(lag).UnixNano()
			if i == 1 {
				ns = 0 // falls back to the snapshot time
			}
			sf.Txs = append(sf.Txs, SnapshotTx{ID: tx.ID.String(), FirstSeenNS: ns})
		}
		return sf
	}
	v1 = IngestRequest{Dataset: "pinned"}
	for h := int64(0); h < 3; h++ {
		v1.Blocks = append(v1.Blocks, FrameBlock(blocks[h]))
		sf := snap(h, "", 0)
		if h == 2 {
			sf.Txs = append(sf.Txs, SnapshotTx{ID: "not-a-txid", FirstSeenNS: sf.TimeNS})
		}
		v1.Mempool = append(v1.Mempool, sf)
	}
	a := IngestRequest{Dataset: "pinned", Source: "s1"}
	for h := int64(3); h < 5; h++ {
		a.Blocks = append(a.Blocks, FrameBlock(blocks[h]))
		a.Mempool = append(a.Mempool, snap(h, "", 0), snap(h, "s2", 30*time.Second))
	}
	b := IngestRequest{Dataset: "pinned", Source: "s2", Blocks: []BlockFrame{FrameBlock(blocks[5])}, Mempool: []SnapshotFrame{snap(5, "", 30*time.Second)}}
	c := IngestRequest{Dataset: "pinned", Source: "s1", Mempool: []SnapshotFrame{snap(5, "", 0), snap(5, "_anon", 0)}}
	return v1, []IngestRequest{a, b, c}
}

// TestIngestFingerprintPinned feeds the pinned stream and requires the
// fingerprints an earlier release computed for it, after the v1 batch and
// at the end. A durable set recovered from its WAL lands on the same
// fingerprint; the duplicate batch the stream ends with is answered 409
// without a WAL line, so recovery replays no conflict.
func TestIngestFingerprintPinned(t *testing.T) {
	const (
		wantV1  = "a8aed6e17c03aa6d"
		wantEnd = "c264985d1af43722"
	)
	dir := t.TempDir()
	srv, err := New(Config{StreamDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := pinnedStream()
	post := func(target string, req IngestRequest, code int) IngestResponse {
		t.Helper()
		rr := postJSON(t, srv.Handler(), target, req)
		if rr.Code != code {
			t.Fatalf("%s = %d, want %d: %s", target, rr.Code, code, rr.Body.String())
		}
		var resp IngestResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if got := post("/v1/ingest", v1, http.StatusOK).Fingerprint; got != wantV1 {
		t.Errorf("fingerprint after the v1 batch = %s, want %s", got, wantV1)
	}
	for _, req := range v2 {
		post("/v2/ingest", req, http.StatusOK)
	}
	dup := v2[1]
	dup.Mempool = nil
	walLines := func() int {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, "pinned"+walSuffix))
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Count(data, []byte("\n"))
	}
	logged := walLines()
	if got := post("/v2/ingest", dup, http.StatusConflict).Fingerprint; got != wantEnd {
		t.Errorf("fingerprint at the end of the stream = %s, want %s", got, wantEnd)
	}
	if n := walLines() - logged; n != 0 {
		t.Errorf("the covered batch added %d WAL lines, want 0", n)
	}

	conflicts := func() int64 { return obs.Default.Snapshot().Counters["serve.wal.replay_conflicts"] }
	before := conflicts()
	recovered, err := New(Config{StreamDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	defer srv.Close()
	if n := conflicts() - before; n != 0 {
		t.Errorf("recovery counted %d replay conflicts, want 0", n)
	}
	set, err := recovered.lookupSet("pinned")
	if err != nil {
		t.Fatal(err)
	}
	if got, _, _ := set.provenance(); got != wantEnd {
		t.Errorf("recovered fingerprint = %s, want %s", got, wantEnd)
	}
}
