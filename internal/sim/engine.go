package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"time"

	"chainaudit/internal/accel"
	"chainaudit/internal/chain"
	"chainaudit/internal/faults"
	"chainaudit/internal/mempool"
	"chainaudit/internal/miner"
	"chainaudit/internal/obs"
	"chainaudit/internal/stats"
	"chainaudit/internal/workload"
)

// Hoisted obs handles: the event loop is the simulator's innermost loop, so
// metric names resolve once per process. Counters are cumulative across
// every run in the process (the manifest reports totals).
var (
	mEvents      = obs.Default.Counter("sim.events")
	mBlocks      = obs.Default.Counter("sim.blocks_mined")
	mSnapshots   = obs.Default.Counter("sim.snapshots")
	mRunTime     = obs.Default.Timer("sim.run")
	mMissedSnaps = obs.Default.Counter("degraded.sim.snapshot_missed")
)

// eventKind enumerates the simulator's event types.
type eventKind int

const (
	evUserTx eventKind = iota
	evReceive
	evBlock
	evSnapshot
	evPayout
	evScam
	evLowFee
	evRBF
)

// event is one scheduled occurrence. seq breaks timestamp ties so the run
// is fully deterministic.
type event struct {
	at   time.Time
	seq  uint64
	kind eventKind
	// payloads (by kind)
	tx       *chain.Tx // evReceive
	nodeIdx  int       // evReceive: -1 = miner fabric, else observer index
	pool     *miner.Pool
	obsIdx   int // evSnapshot
	snapshot int // evSnapshot: running snapshot counter
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// engine holds one run's mutable state.
type engine struct {
	cfg   Config
	rng   *stats.RNG
	inj   *faults.SimInjector // nil outside chaos runs: every hook no-ops
	queue eventQueue
	seq   uint64
	now   time.Time
	end   time.Time

	gen       *workload.Generator
	sched     *miner.Scheduler
	chain     *chain.Chain
	minerPool *mempool.Pool
	observers []*observerState
	truth     GroundTruth
	txIssued  int64
	payoutSet map[string]bool
	scamLeft  int
	prevHash  [32]byte
	height    int64
}

type observerState struct {
	cfg  ObserverConfig
	pool *mempool.Pool
	data *ObserverData
	// pending holds transactions scheduled for arrival so duplicates and
	// late deliveries after confirmation can be discarded cheaply.
	snapshots int
	// blackoutIdx cursors data.Blackouts: snapshot events arrive in time
	// order per observer, so window membership is an O(1) amortized check.
	blackoutIdx int
}

// inBlackout reports whether t falls inside one of the observer's injected
// blackout windows. Calls must be monotone in t (they are: the snapshot
// stream is).
func (os *observerState) inBlackout(t time.Time) bool {
	for os.blackoutIdx < len(os.data.Blackouts) && !t.Before(os.data.Blackouts[os.blackoutIdx].End) {
		os.blackoutIdx++
	}
	return os.blackoutIdx < len(os.data.Blackouts) && os.data.Blackouts[os.blackoutIdx].Contains(t)
}

// Run executes a simulation to completion and returns its result.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Duration <= 0 {
		return nil, errors.New("sim: non-positive duration")
	}
	if len(cfg.Pools) == 0 {
		return nil, errors.New("sim: no pools configured")
	}
	if cfg.MaxArrivalRate <= 0 {
		return nil, errors.New("sim: MaxArrivalRate must bound the schedule")
	}
	rng := stats.NewRNG(cfg.Seed)
	sched, err := miner.NewScheduler(cfg.Pools, rng.Fork(100))
	if err != nil {
		return nil, err
	}
	sched.SetMeanInterval(cfg.MeanBlockInterval)

	e := &engine{
		cfg:       cfg,
		rng:       rng,
		inj:       cfg.Faults.Sim(cfg.Seed),
		now:       cfg.Start,
		end:       cfg.Start.Add(cfg.Duration),
		gen:       workload.NewGenerator(rng.Fork(200), cfg.Users),
		sched:     sched,
		chain:     chain.New(),
		minerPool: mempool.New(mempool.WithMinFeeRate(0), mempool.WithCapacity(cfg.BlockCapacity)),
		payoutSet: make(map[string]bool),
		height:    cfg.StartHeight,
	}
	e.gen.Fees().MedianRate *= cfg.FeeFactor
	e.truth.PayoutTxs = make(map[string][]chain.TxID)
	e.truth.Accelerated = make(map[string][]accel.Record)

	for i, oc := range cfg.Observers {
		if oc.Name == "" {
			return nil, fmt.Errorf("sim: observer %d has no name", i)
		}
		os := &observerState{
			cfg:  oc,
			pool: mempool.New(mempool.WithMinFeeRate(oc.MinFeeRate), mempool.WithCapacity(cfg.BlockCapacity)),
			data: &ObserverData{Name: oc.Name, Seen: make(map[chain.TxID]SeenInfo)},
		}
		os.data.Blackouts = e.inj.Blackouts(i, cfg.Start, cfg.Start.Add(cfg.Duration))
		e.observers = append(e.observers, os)
		e.schedule(cfg.Start.Add(mempool.SnapshotInterval), &event{kind: evSnapshot, obsIdx: i})
	}

	// Seed the recurring event streams.
	e.schedule(workload.NextArrival(rng, cfg.Arrivals, cfg.Start, cfg.MaxArrivalRate), &event{kind: evUserTx})
	blockAt, winner := sched.NextBlockAfter(cfg.Start)
	e.schedule(blockAt, &event{kind: evBlock, pool: winner})

	if cfg.PayoutMeanInterval > 0 {
		pools := cfg.PayoutPools
		if pools == nil {
			for _, p := range cfg.Pools {
				pools = append(pools, p.Name)
			}
		}
		for _, name := range pools {
			p := e.poolByName(name)
			if p == nil {
				return nil, fmt.Errorf("sim: payout pool %q not in roster", name)
			}
			e.payoutSet[name] = true
			e.schedule(e.expAfter(cfg.Start, cfg.PayoutMeanInterval), &event{kind: evPayout, pool: p})
		}
	}
	if cfg.Scam != nil && cfg.Scam.Count > 0 {
		if !cfg.Scam.End.After(cfg.Scam.Start) {
			return nil, errors.New("sim: scam window empty")
		}
		e.truth.ScamWallet = cfg.Scam.Wallet
		e.scamLeft = cfg.Scam.Count
		span := cfg.Scam.End.Sub(cfg.Scam.Start)
		for i := 0; i < cfg.Scam.Count; i++ {
			at := cfg.Scam.Start.Add(time.Duration(rng.Float64() * float64(span)))
			e.schedule(at, &event{kind: evScam})
		}
	}
	if cfg.LowFeeMeanInterval > 0 {
		e.schedule(e.expAfter(cfg.Start, cfg.LowFeeMeanInterval), &event{kind: evLowFee})
	}

	// Main loop.
	defer mRunTime.Time()()
	for e.queue.Len() > 0 {
		ev := heap.Pop(&e.queue).(*event)
		if ev.at.After(e.end) {
			// Keep draining block/receive events shortly past the end so
			// pending receives do not dangle, but stop generators.
			if ev.kind != evReceive {
				continue
			}
			if ev.at.After(e.end.Add(time.Minute)) {
				continue
			}
		}
		e.now = ev.at
		mEvents.Inc()
		if err := e.handle(ev); err != nil {
			return nil, err
		}
	}

	// Collect acceleration ground truth.
	for _, svc := range cfg.Accel {
		e.truth.Accelerated[svc.Pool()] = svc.Records()
	}
	res := &Result{
		Config:    cfg,
		Chain:     e.chain,
		Observers: make(map[string]*ObserverData, len(e.observers)),
		Truth:     e.truth,
		TxIssued:  e.txIssued,
	}
	for _, os := range e.observers {
		res.Observers[os.data.Name] = os.data
	}
	return res, nil
}

func (e *engine) poolByName(name string) *miner.Pool {
	for _, p := range e.cfg.Pools {
		if p.Name == name {
			return p
		}
	}
	return nil
}

func (e *engine) schedule(at time.Time, ev *event) {
	ev.at = at
	ev.seq = e.seq
	e.seq++
	heap.Push(&e.queue, ev)
}

// expAfter returns now plus an exponential delay with the given mean.
func (e *engine) expAfter(now time.Time, mean time.Duration) time.Time {
	return now.Add(time.Duration(float64(mean) * e.rng.ExpFloat64()))
}

// lnDelay samples a log-normal propagation delay with the given median.
func (e *engine) lnDelay(median time.Duration) time.Duration {
	d := time.Duration(e.rng.LogNormal(math.Log(float64(median)), 0.7))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// broadcast schedules a transaction's arrival at the miner fabric and at
// every observer.
func (e *engine) broadcast(tx *chain.Tx) {
	e.txIssued++
	e.schedule(e.now.Add(e.lnDelay(e.cfg.MinerMedianDelay)), &event{kind: evReceive, tx: tx, nodeIdx: -1})
	for i, os := range e.observers {
		e.schedule(e.now.Add(e.lnDelay(os.cfg.MedianDelay)), &event{kind: evReceive, tx: tx, nodeIdx: i})
	}
}

// minerCongestion is the congestion level of the shared miner mempool.
func (e *engine) minerCongestion() mempool.CongestionLevel {
	return mempool.CongestionAt(e.minerPool.TotalVSize(), e.cfg.BlockCapacity)
}

// handle processes one event. It returns an error only for conditions that
// invalidate the whole run (a pool mining an unappendable block); everything
// else is a normal simulation outcome.
func (e *engine) handle(ev *event) error {
	switch ev.kind {
	case evUserTx:
		if !e.now.After(e.end) {
			tx := e.gen.UserTx(e.now, e.minerCongestion())
			e.broadcast(tx)
			e.maybeAccelerate(tx)
			if e.cfg.RBFProb > 0 && e.rng.Float64() < e.cfg.RBFProb {
				delay := e.cfg.RBFDelay
				if delay <= 0 {
					delay = 10 * time.Minute
				}
				e.schedule(e.expAfter(e.now, delay), &event{kind: evRBF, tx: tx})
			}
			e.schedule(workload.NextArrival(e.rng, e.cfg.Arrivals, e.now, e.cfg.MaxArrivalRate), &event{kind: evUserTx})
		}
	case evRBF:
		// The user bumps their payment only while it is still pending.
		if !e.now.After(e.end) && !e.chain.Contains(ev.tx.ID) {
			if bump := e.gen.FeeBump(ev.tx, e.now); bump != nil {
				e.truth.Replacements = append(e.truth.Replacements, Replacement{Old: ev.tx.ID, New: bump.ID})
				e.broadcast(bump)
			}
		}
	case evReceive:
		e.receive(ev)
	case evBlock:
		if e.inj.PoolOutage() {
			// The winning pool found a block but its infrastructure failed to
			// act on the slot; the network just waits for the next discovery.
		} else if err := e.mineBlock(ev.pool); err != nil {
			return err
		}
		if !e.now.After(e.end) {
			at, winner := e.sched.NextBlockAfter(e.now)
			e.schedule(at, &event{kind: evBlock, pool: winner})
		}
	case evSnapshot:
		os := e.observers[ev.obsIdx]
		if os.inBlackout(e.now) {
			// The monitoring node is down: the cadence slot produces no
			// snapshot at all (explicit absence, detectable as a series gap),
			// and the full-capture counter does not advance.
			os.data.MissedSnapshots++
			mMissedSnaps.Inc()
		} else {
			os.snapshots++
			mSnapshots.Inc()
			if os.cfg.FullSnapshotEvery > 0 && os.snapshots%os.cfg.FullSnapshotEvery == 0 {
				snap := os.pool.Capture(e.now, e.tipHeight())
				os.data.Fulls = append(os.data.Fulls, snap)
				os.data.Summaries = append(os.data.Summaries, mempool.Snapshot{
					Time: snap.Time, Count: snap.Count, TotalVSize: snap.TotalVSize,
					TipHeight: snap.TipHeight, Capacity: snap.Capacity,
				})
			} else {
				os.data.Summaries = append(os.data.Summaries, os.pool.Summary(e.now, e.tipHeight()))
			}
		}
		if next := e.now.Add(mempool.SnapshotInterval); !next.After(e.end) {
			e.schedule(next, &event{kind: evSnapshot, obsIdx: ev.obsIdx})
		}
	case evPayout:
		if !e.now.After(e.end) {
			tx := e.gen.PoolPayout(e.now, ev.pool.Wallets)
			e.truth.PayoutTxs[ev.pool.Name] = append(e.truth.PayoutTxs[ev.pool.Name], tx.ID)
			e.broadcast(tx)
			e.schedule(e.expAfter(e.now, e.cfg.PayoutMeanInterval), &event{kind: evPayout, pool: ev.pool})
		}
	case evScam:
		tx := e.gen.ScamPayment(e.now, e.cfg.Scam.Wallet, e.minerCongestion())
		e.truth.ScamTxs = append(e.truth.ScamTxs, tx.ID)
		e.broadcast(tx)
	case evLowFee:
		if !e.now.After(e.end) {
			tx := e.gen.LowBallTx(e.now)
			e.truth.LowFeeTxs = append(e.truth.LowFeeTxs, tx.ID)
			e.broadcast(tx)
			e.schedule(e.expAfter(e.now, e.cfg.LowFeeMeanInterval), &event{kind: evLowFee})
		}
	}
	return nil
}

func (e *engine) tipHeight() int64 {
	if tip := e.chain.Tip(); tip != nil {
		return tip.Height
	}
	return e.height - 1
}

func (e *engine) receive(ev *event) {
	if e.chain.Contains(ev.tx.ID) {
		return // confirmed before this node heard about it
	}
	if e.chain.ConflictsChain(ev.tx) {
		return // an on-chain transaction already spent its inputs
	}
	if ev.nodeIdx < 0 {
		// The miner fabric accepts everything (lenient pools may mine
		// sub-minimum transactions; strict pools filter at template time)
		// and honours replace-by-fee.
		_, _ = e.minerPool.AddOrReplace(ev.tx, e.now)
		return
	}
	os := e.observers[ev.nodeIdx]
	if e.inj.ObserverMiss() {
		// The observer never hears about this transaction: no pool entry, no
		// first-seen record. Downstream statistics see it only on-chain and
		// report the reduced coverage.
		os.data.MissedTxs++
		return
	}
	_, err := os.pool.AddOrReplace(ev.tx, e.now)
	switch {
	case err == nil:
		os.data.Seen[ev.tx.ID] = SeenInfo{
			Time:       e.now,
			TipHeight:  e.tipHeight(),
			Congestion: mempool.CongestionAt(os.pool.TotalVSize(), e.cfg.BlockCapacity),
			FeeRate:    ev.tx.FeeRate(),
		}
	case errors.Is(err, mempool.ErrBelowMinFee):
		os.data.DroppedBelowMin++
	}
}

// maybeAccelerate models a user purchasing dark-fee acceleration for a
// freshly issued transaction: only low-fee-rate transactions under
// congestion are worth accelerating.
func (e *engine) maybeAccelerate(tx *chain.Tx) {
	if len(e.cfg.Accel) == 0 || e.cfg.AccelProb <= 0 {
		return
	}
	if e.minerCongestion() < mempool.CongestionLow {
		return
	}
	if tx.FeeRate() >= 12 { // would confirm quickly anyway
		return
	}
	if e.rng.Float64() >= e.cfg.AccelProb {
		return
	}
	svc := e.cfg.Accel[e.rng.Intn(len(e.cfg.Accel))]
	quote := svc.Quote(tx, e.minerPool.TopFeeRate())
	svc.Accelerate(tx, quote, e.now)
}

// mineBlock lets the winning pool build and append a block. A block the
// chain rejects — a broken template policy or behaviour emitting duplicate
// or double-spending transactions — fails the run with enough context to
// identify the offending pool, instead of panicking the whole experiment
// suite off the process.
func (e *engine) mineBlock(winner *miner.Pool) error {
	var blk *chain.Block
	if e.rng.Float64() < e.cfg.EmptyBlockProb {
		blk = winner.BuildBlock(e.height, e.now, nil, e.prevHash, e.cfg.BlockCapacity)
	} else {
		// BuildBlock's template is a function of the entry set, so the
		// miner pool's unsorted view gives the same block as a sorted one.
		entries := e.minerPool.Unsorted()
		if !winner.AllowLowFee {
			kept := entries[:0]
			for _, en := range entries {
				if en.Tx.FeeRate() >= chain.MinRelayFeeRate {
					kept = append(kept, en)
				}
			}
			entries = kept
		}
		blk = winner.BuildBlock(e.height, e.now, entries, e.prevHash, e.cfg.BlockCapacity)
	}
	if err := e.chain.Append(blk); err != nil {
		return fmt.Errorf("sim: pool %q mined invalid block at height %d (%s): %w",
			winner.Name, e.height, e.now.UTC().Format(time.RFC3339), err)
	}
	mBlocks.Inc()
	e.prevHash = blk.Hash
	e.height++

	confirmed := make(map[chain.TxID]bool, len(blk.Body()))
	for _, tx := range blk.Body() {
		confirmed[tx.ID] = true
	}
	e.minerPool.RemoveConfirmed(blk)
	e.minerPool.RemoveConflicts(blk)
	e.minerPool.EvictToSize(e.cfg.MempoolCapacity)
	for _, os := range e.observers {
		os.pool.RemoveConfirmed(blk)
		os.pool.RemoveConflicts(blk)
		os.pool.EvictToSize(e.cfg.MempoolCapacity)
	}
	e.gen.Forget(confirmed)
	return nil
}
