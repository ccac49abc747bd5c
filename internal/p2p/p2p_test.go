package p2p

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"chainaudit/internal/chain"
)

var baseTime = time.Unix(1_600_000_000, 0)

func mkTx(fee chain.Amount, vsize int64, nonce uint16) *chain.Tx {
	tx := &chain.Tx{
		VSize: vsize,
		Fee:   fee,
		Time:  baseTime,
		Inputs: []chain.TxIn{{
			PrevOut: chain.OutPoint{TxID: chain.TxID{byte(nonce), byte(nonce >> 8), 0xDD}},
			Address: "sender",
			Value:   chain.BTC + fee,
		}},
		Outputs: []chain.TxOut{{Address: "receiver", Value: chain.BTC}},
	}
	tx.ComputeID()
	return tx
}

func mkBlock(height int64, txs ...*chain.Tx) *chain.Block {
	var fees chain.Amount
	for _, tx := range txs {
		fees += tx.Fee
	}
	cb := &chain.Tx{
		VSize:       120,
		Time:        baseTime,
		Outputs:     []chain.TxOut{{Address: "pool", Value: chain.Subsidy(height) + fees}},
		CoinbaseTag: "/Pool/",
	}
	cb.ComputeID()
	b := &chain.Block{Height: height, Time: baseTime, Txs: append([]*chain.Tx{cb}, txs...)}
	b.ComputeHash([32]byte{})
	return b
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frame")
	if err := WriteFrame(&buf, MsgInv, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgInv || !bytes.Equal(got, payload) {
		t.Errorf("round trip: %v %q", typ, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgVerack, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil || typ != MsgVerack || len(got) != 0 {
		t.Errorf("empty frame: %v %v %v", typ, got, err)
	}
}

func TestFrameErrors(t *testing.T) {
	// Bad magic.
	bad := append([]byte("XXXX"), 1, 0, 0, 0, 0)
	if _, _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	// Oversize declared length.
	var buf bytes.Buffer
	buf.Write(Magic[:])
	buf.WriteByte(byte(MsgTx))
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := ReadFrame(&buf); !errors.Is(err, ErrFrameSize) {
		t.Errorf("oversize: %v", err)
	}
	// Truncated payload.
	buf.Reset()
	WriteFrame(&buf, MsgTx, []byte("12345"))
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated payload accepted")
	}
	// Oversize write rejected.
	if err := WriteFrame(&buf, MsgTx, make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrFrameSize) {
		t.Errorf("oversize write: %v", err)
	}
}

func TestMsgTypeString(t *testing.T) {
	for _, m := range []MsgType{MsgVersion, MsgVerack, MsgInv, MsgGetData, MsgTx, MsgBlock, MsgPing, MsgPong} {
		if m.String() == "" {
			t.Error("empty name")
		}
	}
	if MsgType(99).String() != "MsgType(99)" {
		t.Error("unknown name")
	}
}

func TestTxCodecRoundTrip(t *testing.T) {
	tx := mkTx(12_345, 250, 7)
	back, err := DecodeTx(EncodeTx(tx))
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != tx.ID || back.Fee != tx.Fee || back.VSize != tx.VSize ||
		!back.Time.Equal(tx.Time) || len(back.Inputs) != 1 || len(back.Outputs) != 1 {
		t.Errorf("round trip mismatch: %+v", back)
	}
	if back.Inputs[0] != tx.Inputs[0] || back.Outputs[0] != tx.Outputs[0] {
		t.Error("io mismatch")
	}
	// Coinbase (no inputs, with tag).
	cb := &chain.Tx{VSize: 120, Time: baseTime, Outputs: []chain.TxOut{{Address: "p", Value: 5}}, CoinbaseTag: "/T/"}
	cb.ComputeID()
	back, err = DecodeTx(EncodeTx(cb))
	if err != nil || back.CoinbaseTag != "/T/" || len(back.Inputs) != 0 {
		t.Errorf("coinbase round trip: %+v err=%v", back, err)
	}
}

func TestTxCodecRejectsCorruption(t *testing.T) {
	raw := EncodeTx(mkTx(500, 250, 3))
	// Truncations at every length must error, never panic.
	for cut := 0; cut < len(raw); cut++ {
		if _, err := DecodeTx(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage rejected.
	if _, err := DecodeTx(append(append([]byte{}, raw...), 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestBlockCodecRoundTrip(t *testing.T) {
	blk := mkBlock(650_000, mkTx(100, 200, 1), mkTx(200, 300, 2))
	back, err := DecodeBlock(EncodeBlock(blk))
	if err != nil {
		t.Fatal(err)
	}
	if back.Height != blk.Height || back.Hash != blk.Hash || len(back.Txs) != 3 {
		t.Errorf("block mismatch: %+v", back)
	}
	if err := back.Validate(); err != nil {
		t.Errorf("decoded block invalid: %v", err)
	}
	for i := range blk.Txs {
		if back.Txs[i].ID != blk.Txs[i].ID {
			t.Fatal("tx order lost")
		}
	}
}

func TestInvCodec(t *testing.T) {
	ids := []chain.TxID{{1}, {2}, {3}}
	back, err := DecodeInv(EncodeInv(ids))
	if err != nil || len(back) != 3 || back[0] != ids[0] || back[2] != ids[2] {
		t.Errorf("inv round trip: %v err=%v", back, err)
	}
	empty, err := DecodeInv(EncodeInv(nil))
	if err != nil || len(empty) != 0 {
		t.Errorf("empty inv: %v err=%v", empty, err)
	}
	if _, err := DecodeInv([]byte{5, 1, 2}); err == nil {
		t.Error("truncated inv accepted")
	}
}

func TestVersionCodec(t *testing.T) {
	if err := quick.Check(func(name string, tip int64) bool {
		if len(name) > 200 {
			name = name[:200]
		}
		if tip < 0 {
			tip = -tip
		}
		gotName, gotTip, err := DecodeVersion(EncodeVersion(name, tip))
		return err == nil && gotName == name && gotTip == tip
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestGossipOverPipes(t *testing.T) {
	// Line topology: A - B - C. A transaction submitted at A must reach C
	// through B's relay.
	a := NewNode("A", 1)
	b := NewNode("B", 1)
	c := NewNode("C", 1)
	defer a.Close()
	defer b.Close()
	defer c.Close()
	ConnectPair(a, b)
	ConnectPair(b, c)

	tx := mkTx(5_000, 250, 1)
	if err := a.SubmitTx(tx, baseTime); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "tx at C", func() bool {
		snap := c.Mempool(baseTime)
		return snap.Count == 1
	})
	// Seen logs populated everywhere.
	if len(a.SeenLog()) != 1 || len(c.SeenLog()) != 1 {
		t.Error("seen logs wrong")
	}
	// Duplicate resubmission is rejected and not re-broadcast.
	if err := a.SubmitTx(tx, baseTime); err == nil {
		t.Error("duplicate accepted")
	}
}

func TestGossipPolicyDifferences(t *testing.T) {
	// A permissive node relays a low-fee tx; a strict peer refuses it but
	// stays connected.
	perm := NewNode("permissive", 0)
	strict := NewNode("strict", 1)
	defer perm.Close()
	defer strict.Close()
	ConnectPair(perm, strict)

	low := mkTx(10, 250, 2) // 0.04 sat/vB
	if err := perm.SubmitTx(low, baseTime); err != nil {
		t.Fatal(err)
	}
	// Give gossip a moment: strict must NOT pool it.
	time.Sleep(50 * time.Millisecond)
	if snap := strict.Mempool(baseTime); snap.Count != 0 {
		t.Error("strict node pooled a sub-minimum tx")
	}
	// A normal tx still flows.
	ok := mkTx(5_000, 250, 3)
	if err := perm.SubmitTx(ok, baseTime); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "normal tx at strict", func() bool {
		return strict.Mempool(baseTime).Count == 1
	})
}

func TestBlockPropagationClearsMempools(t *testing.T) {
	a := NewNode("A", 1)
	b := NewNode("B", 1)
	defer a.Close()
	defer b.Close()
	ConnectPair(a, b)

	tx := mkTx(5_000, 250, 4)
	if err := a.SubmitTx(tx, baseTime); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "tx at B", func() bool { return b.Mempool(baseTime).Count == 1 })

	blk := mkBlock(650_000, tx)
	if err := a.SubmitBlock(blk); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "mempools cleared", func() bool {
		return a.Mempool(baseTime).Count == 0 && b.Mempool(baseTime).Count == 0
	})
	if b.Mempool(baseTime).TipHeight != 650_000 {
		t.Error("tip not advanced at B")
	}
	// Re-submitting the same block errors.
	if err := a.SubmitBlock(blk); err == nil {
		t.Error("duplicate block accepted")
	}
	// Invalid block rejected.
	if err := a.SubmitBlock(&chain.Block{Height: 1}); err == nil {
		t.Error("invalid block accepted")
	}
}

func TestGossipOverTCP(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	server := NewNode("server", 1)
	client := NewNode("client", 1)
	defer server.Close()
	defer client.Close()
	go server.ListenAndServe(l)

	if err := client.Dial(l.Addr().String()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "handshake", func() bool {
		return server.PeerCount() == 1 && client.PeerCount() == 1
	})

	tx := mkTx(9_999, 250, 5)
	if err := client.SubmitTx(tx, baseTime); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "tx at server over TCP", func() bool {
		return server.Mempool(baseTime).Count == 1
	})
}

// simClock is a deterministic timestamp source: it starts at the simulated
// epoch and advances a fixed step per reading, like an event-driven
// simulation clock.
type simClock struct {
	mu   sync.Mutex
	at   time.Time
	step time.Duration
}

func (c *simClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.at = c.at.Add(c.step)
	return c.at
}

// TestRelayedTxStampedWithNodeClock is the regression test for the
// simulated-clock bug: the message handler used to stamp transactions
// learned from peers with time.Now(), so first-seen times lived on the wall
// clock and drifted across same-seed runs. With a simulated clock installed,
// every seen time must come from that clock.
func TestRelayedTxStampedWithNodeClock(t *testing.T) {
	run := func() []SeenEvent {
		a := NewNode("A", 1)
		b := NewNode("B", 1)
		defer a.Close()
		defer b.Close()
		clk := &simClock{at: baseTime, step: time.Second}
		b.SetClock(clk.now)
		ConnectPair(a, b)

		for i := 0; i < 5; i++ {
			if err := a.SubmitTx(mkTx(chain.Amount(5000+i), 250, uint16(200+i)), baseTime); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "txs relayed to B", func() bool { return b.Mempool(baseTime).Count == 5 })
		return b.SeenLog()
	}

	first := run()
	wallFloor := time.Now().Add(-time.Hour)
	for _, ev := range first {
		if ev.At.After(wallFloor) {
			t.Fatalf("relayed tx %x stamped with the wall clock (%v), not the node clock", ev.TxID[:4], ev.At)
		}
		if ev.At.Before(baseTime) || ev.At.After(baseTime.Add(time.Minute)) {
			t.Errorf("seen time %v outside the simulated timeline", ev.At)
		}
	}

	// Same-seed determinism: a second identical run must log identical
	// first-seen times (relay order over one pipe is deterministic).
	second := run()
	if len(first) != len(second) {
		t.Fatalf("seen log lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i].TxID != second[i].TxID || !first[i].At.Equal(second[i].At) {
			t.Errorf("run divergence at %d: %x@%v vs %x@%v",
				i, first[i].TxID[:4], first[i].At, second[i].TxID[:4], second[i].At)
		}
	}
}

func TestNodeCloseIsIdempotentAndRefusesNewConns(t *testing.T) {
	n := NewNode("X", 1)
	m := NewNode("Y", 1)
	ConnectPair(n, m)
	n.Close()
	n.Close() // idempotent
	// New connection after close is refused.
	ca, cb := net.Pipe()
	n.Connect(ca)
	go func() {
		// Drain whatever the other end writes until closed.
		buf := make([]byte, 1024)
		for {
			if _, err := cb.Read(buf); err != nil {
				return
			}
		}
	}()
	if n.PeerCount() != 0 {
		t.Error("closed node accepted a peer")
	}
	m.Close()
}

func TestMalformedPeerDisconnected(t *testing.T) {
	n := NewNode("N", 1)
	defer n.Close()
	ca, cb := net.Pipe()
	n.Connect(ca)
	// Read the node's version, then send garbage.
	go func() {
		buf := make([]byte, 4096)
		cb.Read(buf)
	}()
	time.Sleep(20 * time.Millisecond)
	cb.Write([]byte("this is not a frame at all........"))
	waitFor(t, "malformed peer dropped", func() bool { return n.PeerCount() == 0 })
}

func TestLateJoinerMempoolSync(t *testing.T) {
	// A node that connects after transactions already circulated must
	// receive the pending set via the mempool-sync handshake.
	early := NewNode("early", 1)
	defer early.Close()
	for i := 0; i < 10; i++ {
		tx := mkTx(chain.Amount(5000+i), 250, uint16(100+i))
		if err := early.SubmitTx(tx, baseTime); err != nil {
			t.Fatal(err)
		}
	}
	late := NewNode("late", 1)
	defer late.Close()
	ConnectPair(early, late)
	waitFor(t, "late joiner synced", func() bool {
		return late.Mempool(baseTime).Count == 10
	})
	if MsgMempool.String() != "mempool" {
		t.Error("message name")
	}
}

// PeerCount returns the number of live peers.
func (n *Node) PeerCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.peers)
}
