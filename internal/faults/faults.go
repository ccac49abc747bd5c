// Package faults is the reproduction's deterministic fault-injection layer.
// The paper's measurement pipeline ran against imperfect infrastructure —
// mempool snapshot outages, a single vantage point with incomplete
// first-seen coverage, flaky pool endpoints — and this package lets the
// reproduction rehearse exactly those failures on purpose: a seeded Plan
// derives independent random streams per consumer (p2p relay, simulator,
// write-ahead log), so a chaos run is reproducible bit-for-bit from its
// (seed, rates) pair alone.
//
// Consumers hold injector handles derived from the Plan:
//
//   - Plan.P2P — per-message drop/delay/duplication decisions plus node
//     churn, consumed by internal/p2p;
//   - Plan.Sim — mining-pool outages, observer first-seen misses, and
//     snapshot blackout windows (the paper's monitoring-node gaps),
//     consumed by internal/sim;
//   - Plan.WAL — per-append crash/torn-write decisions for the streaming
//     write-ahead log, consumed by internal/serve to rehearse auditor
//     restarts and recovery's truncate-and-warn path.
//
// Every injector method is safe on a nil receiver and returns "no fault",
// so consumers wire the hooks unconditionally; a nil or all-zero Plan
// yields a byte-identical run to one with no faults wired at all. Every
// injected fault increments an obs counter under the "faults." prefix, so
// chaos runs are auditable from the run manifest after the fact.
package faults

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"chainaudit/internal/obs"
	"chainaudit/internal/stats"
)

// Injected-fault counters, one per fault category. Counting happens at the
// decision site inside the injectors, so consumers cannot forget to account
// for a fault they applied.
var (
	cP2PDrop   = obs.Default.Counter("faults.p2p.drop")
	cP2PDup    = obs.Default.Counter("faults.p2p.duplicate")
	cP2PDelay  = obs.Default.Counter("faults.p2p.delay")
	cChurn     = obs.Default.Counter("faults.p2p.churn")
	cOutage    = obs.Default.Counter("faults.sim.pool_outage")
	cObsMiss   = obs.Default.Counter("faults.sim.observer_miss")
	cBlackoutW = obs.Default.Counter("faults.sim.blackout_window")
	cWALTear   = obs.Default.Counter("faults.wal.tear")
	cWALCrash  = obs.Default.Counter("faults.wal.crash")
)

// Rates are the fault-injection knobs. All probability knobs are per-event
// probabilities in [0, 1]; a zero value disables that fault class.
type Rates struct {
	// P2PDrop is the probability a relayed p2p message is silently lost.
	P2PDrop float64
	// P2PDuplicate is the probability a relayed message is delivered twice.
	P2PDuplicate float64
	// P2PDelay is the probability a relayed message is held back; held
	// messages are delayed uniformly in (0, P2PDelayMax].
	P2PDelay float64
	// P2PDelayMax bounds injected message delays (default 2 s).
	P2PDelayMax time.Duration
	// Churn is the probability, per churn poll, that a node restarts —
	// dropping its peers and losing its mempool.
	Churn float64
	// PoolOutage is the probability a winning pool misses its block slot
	// (the flaky-endpoint analogue: the pool found a block but its
	// infrastructure failed to act on it).
	PoolOutage float64
	// ObserverMiss is the probability an observation node never hears about
	// a transaction at all — the paper's single-vantage-point first-seen
	// coverage gap.
	ObserverMiss float64
	// Blackout is the target fraction of the run each observer's snapshot
	// stream spends inside blackout windows (monitoring-node outages during
	// which no snapshots are captured).
	Blackout float64
	// BlackoutWindow is the mean blackout window length (default 10 min).
	BlackoutWindow time.Duration
	// WALTear is the per-append probability a write-ahead-log append is torn:
	// the process "dies" mid-write, leaving only a prefix of the line on
	// disk. The WAL layer reports a crash and refuses further appends until
	// restart, so recovery's truncate-and-warn path is exercised.
	WALTear float64
	// WALCrash is the per-append probability the process "dies" just before
	// the append reaches the log at all: the in-flight batch is lost entirely
	// and must be re-shipped by the observer after restart.
	WALCrash float64
}

// Zero reports whether every fault class is disabled.
func (r Rates) Zero() bool {
	return r.P2PDrop == 0 && r.P2PDuplicate == 0 && r.P2PDelay == 0 &&
		r.Churn == 0 && r.PoolOutage == 0 && r.ObserverMiss == 0 &&
		r.Blackout == 0 && r.WALTear == 0 && r.WALCrash == 0
}

func (r Rates) validate() error {
	probs := []struct {
		name string
		v    float64
	}{
		{"p2p.drop", r.P2PDrop}, {"p2p.dup", r.P2PDuplicate}, {"p2p.delay", r.P2PDelay},
		{"churn", r.Churn}, {"pool.outage", r.PoolOutage}, {"obs.miss", r.ObserverMiss},
		{"snap.blackout", r.Blackout}, {"wal.tear", r.WALTear}, {"wal.crash", r.WALCrash},
	}
	for _, p := range probs {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults: rate %s=%g outside [0,1]", p.name, p.v)
		}
	}
	if r.Blackout == 1 {
		return fmt.Errorf("faults: snap.blackout=1 leaves no uptime between windows")
	}
	if r.P2PDelayMax < 0 || r.BlackoutWindow < 0 {
		return fmt.Errorf("faults: negative duration knob")
	}
	return nil
}

// Plan is one seeded fault-injection configuration. A Plan is immutable and
// safe to share; injectors derived from it carry their own random streams.
type Plan struct {
	Seed  uint64
	Rates Rates
}

// NewPlan builds a plan; rates outside [0, 1] are rejected.
func NewPlan(seed uint64, r Rates) (*Plan, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	return &Plan{Seed: seed, Rates: r}, nil
}

// Active reports whether the plan injects anything at all. A nil plan and a
// plan with all-zero rates are equally inactive: both must produce runs
// byte-identical to an unwired one.
func (p *Plan) Active() bool { return p != nil && !p.Rates.Zero() }

// delayMax returns the configured or default maximum injected delay.
func (r Rates) delayMax() time.Duration {
	if r.P2PDelayMax > 0 {
		return r.P2PDelayMax
	}
	return 2 * time.Second
}

// blackoutWindow returns the configured or default mean window length.
func (r Rates) blackoutWindow() time.Duration {
	if r.BlackoutWindow > 0 {
		return r.BlackoutWindow
	}
	return 10 * time.Minute
}

// Spec renders the plan as the canonical spec string ParseSpec accepts:
// seed first, then every nonzero knob in a fixed order.
func (p *Plan) Spec() string {
	if p == nil {
		return ""
	}
	parts := []string{fmt.Sprintf("seed=%d", p.Seed)}
	add := func(k string, v float64) {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	addDur := func(k string, v time.Duration) {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%s", k, v))
		}
	}
	r := p.Rates
	add("p2p.drop", r.P2PDrop)
	add("p2p.dup", r.P2PDuplicate)
	add("p2p.delay", r.P2PDelay)
	addDur("p2p.delaymax", r.P2PDelayMax)
	add("churn", r.Churn)
	add("pool.outage", r.PoolOutage)
	add("obs.miss", r.ObserverMiss)
	add("snap.blackout", r.Blackout)
	addDur("snap.window", r.BlackoutWindow)
	add("wal.tear", r.WALTear)
	add("wal.crash", r.WALCrash)
	return strings.Join(parts, ",")
}

// Fingerprint identifies the plan for caching: inactive plans (nil or
// all-zero rates) fingerprint to "", the same key as no plan, because they
// are required to produce identical data.
func (p *Plan) Fingerprint() string {
	if !p.Active() {
		return ""
	}
	return p.Spec()
}

// ParseSpec parses a "-chaos" style spec: comma-separated key=value pairs.
// Keys: seed, p2p.drop, p2p.dup, p2p.delay, p2p.delaymax, churn,
// pool.outage, obs.miss, snap.blackout, snap.window, wal.tear, wal.crash.
// Probabilities are floats in [0,1]; delaymax/window are Go durations. A
// bare "seed=N" is a valid (zero-rate) plan.
func ParseSpec(spec string) (*Plan, error) {
	var (
		seed uint64
		r    Rates
	)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("faults: spec entry %q is not key=value", part)
		}
		if k == "seed" {
			s, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q: %w", v, err)
			}
			seed = s
			continue
		}
		if k == "p2p.delaymax" || k == "snap.window" {
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("faults: bad duration %s=%q: %w", k, v, err)
			}
			if k == "p2p.delaymax" {
				r.P2PDelayMax = d
			} else {
				r.BlackoutWindow = d
			}
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("faults: bad rate %s=%q: %w", k, v, err)
		}
		switch k {
		case "p2p.drop":
			r.P2PDrop = f
		case "p2p.dup":
			r.P2PDuplicate = f
		case "p2p.delay":
			r.P2PDelay = f
		case "churn":
			r.Churn = f
		case "pool.outage":
			r.PoolOutage = f
		case "obs.miss":
			r.ObserverMiss = f
		case "snap.blackout":
			r.Blackout = f
		case "wal.tear":
			r.WALTear = f
		case "wal.crash":
			r.WALCrash = f
		default:
			return nil, fmt.Errorf("faults: unknown spec key %q", k)
		}
	}
	return NewPlan(seed, r)
}

// mix folds a label into the plan seed through SplitMix64-style avalanche,
// so injectors for different consumers draw uncorrelated streams.
func mix(seed, label uint64) uint64 {
	z := seed + label*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Window is one closed-open [Start, End) fault window on a run's timeline.
type Window struct {
	Start, End time.Time
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Time) bool {
	return !t.Before(w.Start) && t.Before(w.End)
}

// MessageAction is one p2p message's injected fate.
type MessageAction struct {
	Drop      bool
	Duplicate bool
	Delay     time.Duration
}

// P2PInjector decides per-message faults and node churn. It is safe for
// concurrent use (p2p peers run on their own goroutines).
type P2PInjector struct {
	r  Rates
	mu sync.Mutex
	// rng guarded by mu; the stream order depends on goroutine scheduling,
	// which is acceptable for the wall-clock p2p layer (the discrete-event
	// simulator uses the single-threaded SimInjector instead).
	rng *stats.RNG
}

// P2P derives a message-fault injector for one node; label distinguishes
// nodes so each draws an independent stream. Returns nil (inject nothing)
// for an inactive plan.
func (p *Plan) P2P(label uint64) *P2PInjector {
	if !p.Active() {
		return nil
	}
	return &P2PInjector{r: p.Rates, rng: stats.NewRNG(mix(p.Seed, 0xb2b^label))}
}

// Message decides one relayed message's fate. Nil-safe: no faults.
func (inj *P2PInjector) Message() MessageAction {
	if inj == nil {
		return MessageAction{}
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var act MessageAction
	if inj.r.P2PDrop > 0 && inj.rng.Float64() < inj.r.P2PDrop {
		cP2PDrop.Inc()
		act.Drop = true
		return act
	}
	if inj.r.P2PDuplicate > 0 && inj.rng.Float64() < inj.r.P2PDuplicate {
		cP2PDup.Inc()
		act.Duplicate = true
	}
	if inj.r.P2PDelay > 0 && inj.rng.Float64() < inj.r.P2PDelay {
		cP2PDelay.Inc()
		act.Delay = time.Duration(inj.rng.Float64() * float64(inj.r.delayMax()))
		if act.Delay <= 0 {
			act.Delay = time.Millisecond
		}
	}
	return act
}

// Churn reports whether the node should restart now. Nil-safe: never.
func (inj *P2PInjector) Churn() bool {
	if inj == nil {
		return false
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.r.Churn > 0 && inj.rng.Float64() < inj.r.Churn {
		cChurn.Inc()
		return true
	}
	return false
}

// SimInjector decides simulator-side faults. It is NOT safe for concurrent
// use: the discrete-event loop is single-threaded, and keeping the streams
// unsynchronized is what makes chaos runs reproducible.
type SimInjector struct {
	r      Rates
	seed   uint64
	outage *stats.RNG
	miss   *stats.RNG
}

// Sim derives a simulator injector for one run; runSeed (the sim config
// seed) keys the stream so each dataset's faults are independent and stable
// regardless of build order. Returns nil for an inactive plan.
func (p *Plan) Sim(runSeed uint64) *SimInjector {
	if !p.Active() {
		return nil
	}
	s := mix(p.Seed, 0x51b^runSeed)
	return &SimInjector{
		r:      p.Rates,
		seed:   s,
		outage: stats.NewRNG(mix(s, 1)),
		miss:   stats.NewRNG(mix(s, 2)),
	}
}

// PoolOutage reports whether the current block slot is lost to a pool
// outage. Nil-safe: never.
func (s *SimInjector) PoolOutage() bool {
	if s == nil || s.r.PoolOutage <= 0 {
		return false
	}
	if s.outage.Float64() < s.r.PoolOutage {
		cOutage.Inc()
		return true
	}
	return false
}

// ObserverMiss reports whether an observation node misses the incoming
// transaction entirely. Nil-safe: never.
func (s *SimInjector) ObserverMiss() bool {
	if s == nil || s.r.ObserverMiss <= 0 {
		return false
	}
	if s.miss.Float64() < s.r.ObserverMiss {
		cObsMiss.Inc()
		return true
	}
	return false
}

// Blackouts generates observer obsIdx's snapshot blackout windows across
// [start, end): alternating exponential up-time and blackout windows whose
// long-run duty cycle matches Rates.Blackout. Deterministic in (plan seed,
// run seed, obsIdx) and independent of every other fault stream. Nil-safe:
// no windows.
func (s *SimInjector) Blackouts(obsIdx int, start, end time.Time) []Window {
	if s == nil || s.r.Blackout <= 0 || !end.After(start) {
		return nil
	}
	rng := stats.NewRNG(mix(s.seed, 0xb1ac^uint64(obsIdx)))
	win := s.r.blackoutWindow()
	meanUp := time.Duration(float64(win) * (1 - s.r.Blackout) / s.r.Blackout)
	var out []Window
	t := start
	for {
		t = t.Add(time.Duration(float64(meanUp) * rng.ExpFloat64()))
		if !t.Before(end) {
			return out
		}
		d := time.Duration(float64(win) * rng.ExpFloat64())
		if d < 30*time.Second {
			d = 30 * time.Second // a window shorter than the snapshot cadence injects nothing
		}
		w := Window{Start: t, End: t.Add(d)}
		if w.End.After(end) {
			w.End = end
		}
		cBlackoutW.Inc()
		out = append(out, w)
		t = w.End
	}
}

// WALAction is one write-ahead-log append's injected fate. At most one of
// Tear/Crash is set; both simulate the process dying at the append, so the
// WAL refuses further writes until "restart" (a new writer on the same file).
type WALAction struct {
	// Tear: the append dies mid-write, persisting only a KeepFrac prefix of
	// the line. Recovery must truncate the torn tail and warn.
	Tear bool
	// Crash: the append dies before any byte reaches the log; the batch is
	// lost entirely and must be re-shipped after restart.
	Crash bool
	// KeepFrac is the fraction of the line that survives a torn append,
	// in [0, 1). Meaningful only when Tear is set.
	KeepFrac float64
}

// WALInjector decides per-append WAL faults. Decisions draw from a single
// sequential stream per injector; the serve layer calls Append under the
// per-set mutex, so no internal locking is needed beyond that.
type WALInjector struct {
	r   Rates
	mu  sync.Mutex
	rng *stats.RNG
}

// WAL derives a write-ahead-log fault injector; label distinguishes sets so
// each log draws an independent stream. Returns nil for an inactive plan.
func (p *Plan) WAL(label uint64) *WALInjector {
	if !p.Active() {
		return nil
	}
	return &WALInjector{r: p.Rates, rng: stats.NewRNG(mix(p.Seed, 0x3a1^label))}
}

// Append decides one WAL append's fate. Nil-safe: no fault.
func (inj *WALInjector) Append() WALAction {
	if inj == nil || (inj.r.WALTear <= 0 && inj.r.WALCrash <= 0) {
		return WALAction{}
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	u := inj.rng.Float64()
	switch {
	case u < inj.r.WALCrash:
		cWALCrash.Inc()
		return WALAction{Crash: true}
	case u < inj.r.WALCrash+inj.r.WALTear:
		cWALTear.Inc()
		return WALAction{Tear: true, KeepFrac: inj.rng.Float64()}
	default:
		return WALAction{}
	}
}
