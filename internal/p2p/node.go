package p2p

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/faults"
	"chainaudit/internal/mempool"
)

// Node is a relay participant: it maintains a mempool, announces what it
// learns to its peers, and fetches what it is missing — the same
// inv/getdata gossip loop the paper's observation nodes ran.
type Node struct {
	name       string
	minFeeRate chain.SatPerVByte

	mu      sync.Mutex
	clock   func() time.Time // timestamp source for relayed txs; nil = time.Now
	inj     *faults.P2PInjector
	pool    *mempool.Pool
	txs     map[chain.TxID]*chain.Tx // known transactions (incl. confirmed)
	blocks  map[int64]*chain.Block
	tip     int64
	peers   map[*peer]struct{}
	peerSeq int64 // connection counter; orders peers deterministically
	seenLog []SeenEvent
	closed  bool

	// blockHook, when set, fires after every accepted block — local submits
	// and gossip alike — outside the node lock (see SetBlockHook).
	blockHook func(*chain.Block)
}

// SeenEvent records the node's first contact with a transaction, the raw
// material of the paper's data sets A and B.
type SeenEvent struct {
	TxID chain.TxID
	At   time.Time
	Tip  int64
}

// NewNode creates a node with the given mempool admission policy.
func NewNode(name string, minFeeRate chain.SatPerVByte) *Node {
	return &Node{
		name:       name,
		minFeeRate: minFeeRate,
		pool:       mempool.New(mempool.WithMinFeeRate(minFeeRate)),
		txs:        make(map[chain.TxID]*chain.Tx),
		blocks:     make(map[int64]*chain.Block),
		peers:      make(map[*peer]struct{}),
	}
}

// Name returns the node's handshake name.
func (n *Node) Name() string { return n.name }

// SetClock installs the timestamp source used for transactions learned from
// peers. Simulations drive nodes on a simulated timeline; without this, the
// message handler stamped relayed transactions with the wall clock, so
// first-seen times drifted with host load and differed across same-seed
// runs. The node calls clock with its lock held, so clock must not call
// back into the node. Set it before Connect; nil restores time.Now.
func (n *Node) SetClock(clock func() time.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.clock = clock
}

// SetFaults installs a fault injector consulted for every outbound message
// (drop/delay/duplication). Nil (the default, and what an inactive
// faults.Plan derives) injects nothing. Set it before Connect.
func (n *Node) SetFaults(inj *faults.P2PInjector) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.inj = inj
}

// injector reads the node's fault injector.
func (n *Node) injector() *faults.P2PInjector {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.inj
}

// Restart simulates node churn: every peer connection is dropped and the
// mempool is rebuilt empty (unconfirmed transactions lived only in memory),
// while the block store and the on-disk artefacts a real deployment would
// keep — the first-seen log — survive. Callers reconnect afterwards, the
// same way a supervised bitcoind comes back and re-dials.
func (n *Node) Restart() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	peers := n.snapshotPeers(nil)
	for _, e := range n.pool.Entries() {
		delete(n.txs, e.Tx.ID) // forget unconfirmed txs so they can be re-learned
	}
	n.pool = mempool.New(mempool.WithMinFeeRate(n.minFeeRate))
	n.mu.Unlock()
	for _, p := range peers {
		p.close()
	}
}

// MaybeChurn polls the fault injector's churn knob and restarts the node
// when it fires, reporting whether it did. Harnesses call this on whatever
// cadence models their supervision interval.
func (n *Node) MaybeChurn() bool {
	if !n.injector().Churn() {
		return false
	}
	n.Restart()
	return true
}

// nowLocked reads the node's timestamp source. n.mu must be held.
func (n *Node) nowLocked() time.Time {
	if n.clock == nil {
		//lint:allow walltime injected-clock fallback waives the byte-identical-rerun invariant: a harness that never calls SetClock has opted out of deterministic timestamps, and wall time is the only source left
		return time.Now()
	}
	return n.clock()
}

// Mempool returns a point-in-time full snapshot of the node's mempool.
func (n *Node) Mempool(now time.Time) mempool.Snapshot {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pool.Capture(now, n.tip)
}

// SeenLog returns a copy of the node's first-contact log.
func (n *Node) SeenLog() []SeenEvent {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]SeenEvent(nil), n.seenLog...)
}

// SeenLogSince returns a copy of the first-contact log entries from index
// start onward plus the new cursor — the incremental pull a live observer
// uses to carry only the delta since its previous snapshot.
func (n *Node) SeenLogSince(start int) ([]SeenEvent, int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if start < 0 {
		start = 0
	}
	if start > len(n.seenLog) {
		start = len(n.seenLog)
	}
	return append([]SeenEvent(nil), n.seenLog[start:]...), len(n.seenLog)
}

// SetBlockHook installs a callback fired after every block the node
// accepts, whether submitted locally or learned from gossip. The hook runs
// outside the node lock on the accepting goroutine, after the block is
// stored and the mempool pruned — internal/observer subscribes here. Set it
// before Connect; nil removes it.
func (n *Node) SetBlockHook(f func(*chain.Block)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blockHook = f
}

// peer is one connection with its writer loop.
type peer struct {
	node *Node
	conn net.Conn
	out  chan frame
	name string
	seq  int64 // connection order, for deterministic peer iteration
	once sync.Once

	// sendMu guards out against close: send holds it across the channel
	// operation and close takes it before closing the channel.
	sendMu sync.Mutex
	closed bool
}

type frame struct {
	t       MsgType
	payload []byte
}

// peerQueueDepth bounds a peer's outbound queue. A burst larger than this
// that the peer cannot drain in time gets the peer dropped (relays protect
// themselves from slow consumers); it is sized for thousands of in-flight
// announcements, far above any honest burst.
const peerQueueDepth = 8192

// Connect attaches a connection to the node: it performs the version
// handshake asynchronously and starts the gossip loops. The node does not
// own reconnection policy; callers dial.
func (n *Node) Connect(conn net.Conn) {
	p := &peer{node: n, conn: conn, out: make(chan frame, peerQueueDepth)}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		conn.Close()
		return
	}
	n.peerSeq++
	p.seq = n.peerSeq
	n.peers[p] = struct{}{}
	tip := n.tip
	n.mu.Unlock()

	go p.writeLoop()
	go p.readLoop()
	p.send(MsgVersion, EncodeVersion(n.name, tip))
}

// Close shuts the node down, closing all peer connections.
func (n *Node) Close() {
	n.mu.Lock()
	n.closed = true
	peers := n.snapshotPeers(nil)
	n.mu.Unlock()
	for _, p := range peers {
		p.close()
	}
}

// SubmitTx injects a locally created transaction (a user handing it to
// their node) and announces it.
func (n *Node) SubmitTx(tx *chain.Tx, now time.Time) error {
	if err := n.acceptTx(tx, func() time.Time { return now }); err != nil {
		return err
	}
	n.announce([]chain.TxID{tx.ID}, nil)
	return nil
}

// SubmitBlock injects a locally mined block and announces it to peers.
func (n *Node) SubmitBlock(blk *chain.Block) error {
	if err := n.acceptBlock(blk); err != nil {
		return err
	}
	n.broadcastBlock(blk, nil)
	return nil
}

// acceptTx records and pools a transaction first seen at stamp(). Duplicate
// and policy-rejected transactions return the mempool's error; duplicates
// are not re-announced. The duplicate check, the stamp and the insert share
// one n.mu section, so stamp runs with n.mu held and only for a transaction
// not yet known: a duplicate delivery, from any number of peers at once,
// never reads (and so never advances) an injected clock.
func (n *Node) acceptTx(tx *chain.Tx, stamp func() time.Time) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, known := n.txs[tx.ID]; known {
		return mempool.ErrDuplicate
	}
	now := stamp()
	if err := n.pool.Add(tx, now); err != nil {
		return err
	}
	n.txs[tx.ID] = tx
	n.seenLog = append(n.seenLog, SeenEvent{TxID: tx.ID, At: now, Tip: n.tip})
	return nil
}

func (n *Node) acceptBlock(blk *chain.Block) error {
	if err := blk.Validate(); err != nil {
		return err
	}
	n.mu.Lock()
	if _, known := n.blocks[blk.Height]; known {
		n.mu.Unlock()
		return fmt.Errorf("p2p: block %d already known", blk.Height)
	}
	n.blocks[blk.Height] = blk
	if blk.Height > n.tip {
		n.tip = blk.Height
	}
	n.pool.RemoveConfirmed(blk)
	for _, tx := range blk.Txs {
		n.txs[tx.ID] = tx
	}
	hook := n.blockHook
	n.mu.Unlock()
	// The hook runs outside the lock so it may call back into the node
	// (SeenLogSince, Mempool). Accepts are serialized through n.mu, and the
	// feed drivers submit sequentially, so hooks observe accept order.
	if hook != nil {
		hook(blk)
	}
	return nil
}

// announce sends an inv to all peers except the source.
func (n *Node) announce(ids []chain.TxID, except *peer) {
	payload := EncodeInv(ids)
	n.eachPeer(except, func(p *peer) { p.send(MsgInv, payload) })
}

func (n *Node) broadcastBlock(blk *chain.Block, except *peer) {
	payload := EncodeBlock(blk)
	n.eachPeer(except, func(p *peer) { p.send(MsgBlock, payload) })
}

func (n *Node) eachPeer(except *peer, f func(*peer)) {
	n.mu.Lock()
	peers := n.snapshotPeers(except)
	n.mu.Unlock()
	for _, p := range peers {
		f(p)
	}
}

// snapshotPeers copies the peer set in connection order (the peers map is a
// set, and map iteration order would otherwise leak into relay and shutdown
// order). Callers must hold n.mu.
func (n *Node) snapshotPeers(except *peer) []*peer {
	peers := make([]*peer, 0, len(n.peers))
	for p := range n.peers {
		if p != except {
			peers = append(peers, p)
		}
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].seq < peers[j].seq })
	return peers
}

// send relays one message to the peer, first letting the node's fault
// injector decide its fate: dropped messages vanish, duplicated ones are
// enqueued twice (relays must tolerate redundant gossip), delayed ones are
// enqueued from a timer. With no injector (the default) this is a straight
// call to enqueue.
func (p *peer) send(t MsgType, payload []byte) {
	act := p.node.injector().Message()
	if act.Drop {
		return
	}
	deliver := func() {
		p.enqueue(t, payload)
		if act.Duplicate {
			p.enqueue(t, payload)
		}
	}
	if act.Delay > 0 {
		time.AfterFunc(act.Delay, deliver)
		return
	}
	deliver()
}

// enqueue places a frame on the peer's bounded outbound queue.
func (p *peer) enqueue(t MsgType, payload []byte) {
	p.sendMu.Lock()
	if p.closed {
		p.sendMu.Unlock()
		return
	}
	overflow := false
	select {
	case p.out <- frame{t, payload}:
	default:
		overflow = true
	}
	p.sendMu.Unlock()
	if overflow {
		// Backpressure overflow: a peer this slow is dropped, the same
		// pragmatic policy real relays use.
		p.close()
	}
}

func (p *peer) writeLoop() {
	for f := range p.out {
		if err := WriteFrame(p.conn, f.t, f.payload); err != nil {
			p.close()
			return
		}
	}
}

func (p *peer) readLoop() {
	defer p.close()
	for {
		t, payload, err := ReadFrame(p.conn)
		if err != nil {
			return
		}
		if err := p.handle(t, payload); err != nil {
			return
		}
	}
}

func (p *peer) handle(t MsgType, payload []byte) error {
	n := p.node
	switch t {
	case MsgVersion:
		name, _, err := DecodeVersion(payload)
		if err != nil {
			return err
		}
		p.name = name
		p.send(MsgVerack, nil)
		// Catch up on whatever the peer already holds.
		p.send(MsgMempool, nil)
	case MsgMempool:
		n.mu.Lock()
		ids := make([]chain.TxID, 0, n.pool.Len())
		for _, e := range n.pool.Entries() {
			ids = append(ids, e.Tx.ID)
		}
		n.mu.Unlock()
		if len(ids) > 0 {
			p.send(MsgInv, EncodeInv(ids))
		}
	case MsgVerack, MsgPong:
		// No action required.
	case MsgPing:
		p.send(MsgPong, payload)
	case MsgInv:
		ids, err := DecodeInv(payload)
		if err != nil {
			return err
		}
		var want []chain.TxID
		n.mu.Lock()
		for _, id := range ids {
			if _, known := n.txs[id]; !known {
				want = append(want, id)
			}
		}
		n.mu.Unlock()
		if len(want) > 0 {
			p.send(MsgGetData, EncodeInv(want))
		}
	case MsgGetData:
		ids, err := DecodeInv(payload)
		if err != nil {
			return err
		}
		for _, id := range ids {
			n.mu.Lock()
			tx := n.txs[id]
			n.mu.Unlock()
			if tx != nil {
				p.send(MsgTx, EncodeTx(tx))
			}
		}
	case MsgTx:
		tx, err := DecodeTx(payload)
		if err != nil {
			return err
		}
		if err := n.acceptTx(tx, n.nowLocked); err == nil {
			n.announce([]chain.TxID{tx.ID}, p)
		}
	case MsgBlock:
		blk, err := DecodeBlock(payload)
		if err != nil {
			return err
		}
		if err := n.acceptBlock(blk); err == nil {
			n.broadcastBlock(blk, p)
		}
	default:
		return fmt.Errorf("%w: unknown type %d", ErrBadMessage, byte(t))
	}
	return nil
}

func (p *peer) close() {
	p.once.Do(func() {
		p.node.mu.Lock()
		delete(p.node.peers, p)
		p.node.mu.Unlock()
		p.sendMu.Lock()
		p.closed = true
		close(p.out)
		p.sendMu.Unlock()
		p.conn.Close()
	})
}

// ListenAndServe accepts TCP connections on l and attaches each to the
// node. It returns when the listener fails (e.g. is closed).
func (n *Node) ListenAndServe(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		n.Connect(conn)
	}
}

// Dial connects the node to a TCP address.
func (n *Node) Dial(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	n.Connect(conn)
	return nil
}

// ConnectPair links two nodes over an in-memory duplex pipe, for tests and
// simulations that do not need real sockets.
func ConnectPair(a, b *Node) {
	ca, cb := net.Pipe()
	a.Connect(ca)
	b.Connect(cb)
}
