package faults

import (
	"testing"
	"time"
)

func TestParseSpecRoundTrip(t *testing.T) {
	spec := "seed=7,p2p.drop=0.05,p2p.dup=0.02,p2p.delay=0.1,p2p.delaymax=3s,churn=0.01,pool.outage=0.08,obs.miss=0.15,snap.blackout=0.2,snap.window=5m0s,wal.tear=0.03,wal.crash=0.02"
	p, err := ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if !p.Active() {
		t.Fatal("plan with nonzero rates should be active")
	}
	if got := p.Spec(); got != spec {
		t.Fatalf("Spec round trip:\n got %q\nwant %q", got, spec)
	}
	back, err := ParseSpec(p.Spec())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if *back != *p {
		t.Fatalf("reparse mismatch: %+v vs %+v", back, p)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"seed",              // not key=value
		"seed=x",            // bad seed
		"p2p.drop=1.5",      // out of range
		"p2p.drop=-0.1",     // out of range
		"snap.blackout=1",   // no uptime
		"bogus=0.5",         // unknown key
		"p2p.delaymax=nope", // bad duration
		"p2p.delaymax=-1s",  // negative duration
		"obs.miss=zero",     // bad float
		"rec.corrupt=0.1",   // unknown key: there is no record-fault class
		"wal.tear=2",        // out of range
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q): want error, got nil", spec)
		}
	}
}

func TestInactivePlansAreNoOps(t *testing.T) {
	var nilPlan *Plan
	zero, err := ParseSpec("seed=99")
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*Plan{"nil": nilPlan, "zero-rate": zero} {
		if p.Active() {
			t.Errorf("%s plan: Active() = true", name)
		}
		if fp := p.Fingerprint(); fp != "" {
			t.Errorf("%s plan: Fingerprint() = %q, want \"\"", name, fp)
		}
		if inj := p.P2P(1); inj != nil {
			t.Errorf("%s plan: P2P() != nil", name)
		}
		if inj := p.Sim(1); inj != nil {
			t.Errorf("%s plan: Sim() != nil", name)
		}
		if inj := p.WAL(1); inj != nil {
			t.Errorf("%s plan: WAL() != nil", name)
		}
	}
	// Nil injectors must answer "no fault" for every hook.
	var p2p *P2PInjector
	if act := p2p.Message(); act != (MessageAction{}) {
		t.Errorf("nil P2PInjector.Message() = %+v", act)
	}
	if p2p.Churn() {
		t.Error("nil P2PInjector.Churn() = true")
	}
	var sim *SimInjector
	if sim.PoolOutage() || sim.ObserverMiss() {
		t.Error("nil SimInjector injected a fault")
	}
	if w := sim.Blackouts(0, time.Unix(0, 0), time.Unix(3600, 0)); w != nil {
		t.Errorf("nil SimInjector.Blackouts() = %v", w)
	}
	var wal *WALInjector
	if act := wal.Append(); act != (WALAction{}) {
		t.Errorf("nil WALInjector.Append() = %+v", act)
	}
}

func TestP2PInjectorDeterministic(t *testing.T) {
	p, err := ParseSpec("seed=42,p2p.drop=0.2,p2p.dup=0.1,p2p.delay=0.3")
	if err != nil {
		t.Fatal(err)
	}
	a, b := p.P2P(5), p.P2P(5)
	for i := 0; i < 500; i++ {
		if av, bv := a.Message(), b.Message(); av != bv {
			t.Fatalf("message %d: %+v vs %+v", i, av, bv)
		}
	}
	// A different node label draws a different stream.
	c := p.P2P(6)
	same := 0
	d := p.P2P(5)
	for i := 0; i < 500; i++ {
		if c.Message() == d.Message() {
			same++
		}
	}
	if same == 500 {
		t.Fatal("different node labels produced identical fault streams")
	}
}

func TestP2PInjectorRates(t *testing.T) {
	p, err := ParseSpec("seed=1,p2p.drop=0.25")
	if err != nil {
		t.Fatal(err)
	}
	inj := p.P2P(0)
	drops := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if inj.Message().Drop {
			drops++
		}
	}
	if frac := float64(drops) / n; frac < 0.2 || frac > 0.3 {
		t.Fatalf("drop fraction %.3f far from configured 0.25", frac)
	}
}

func TestSimInjectorBlackouts(t *testing.T) {
	p, err := ParseSpec("seed=3,snap.blackout=0.25,snap.window=10m")
	if err != nil {
		t.Fatal(err)
	}
	inj := p.Sim(11)
	start := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	end := start.Add(48 * time.Hour)
	wins := inj.Blackouts(0, start, end)
	if len(wins) == 0 {
		t.Fatal("no blackout windows over 48h at 25% duty cycle")
	}
	var down time.Duration
	prev := start
	for i, w := range wins {
		if w.Start.Before(prev) {
			t.Fatalf("window %d overlaps or precedes previous (start %v, prev end %v)", i, w.Start, prev)
		}
		if !w.End.After(w.Start) {
			t.Fatalf("window %d empty: %+v", i, w)
		}
		if w.End.After(end) {
			t.Fatalf("window %d spills past run end: %+v", i, w)
		}
		down += w.End.Sub(w.Start)
		prev = w.End
	}
	frac := float64(down) / float64(end.Sub(start))
	if frac < 0.1 || frac > 0.45 {
		t.Fatalf("blackout duty cycle %.3f far from configured 0.25", frac)
	}
	// Deterministic per (plan, run, observer); different observers differ.
	again := p.Sim(11).Blackouts(0, start, end)
	if len(again) != len(wins) {
		t.Fatalf("re-derived windows differ: %d vs %d", len(again), len(wins))
	}
	for i := range wins {
		if wins[i] != again[i] {
			t.Fatalf("window %d not deterministic: %+v vs %+v", i, wins[i], again[i])
		}
	}
	other := p.Sim(11).Blackouts(1, start, end)
	if len(other) == len(wins) {
		identical := true
		for i := range wins {
			if wins[i] != other[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Fatal("different observers drew identical blackout windows")
		}
	}
}

func TestWALInjectorDeterministic(t *testing.T) {
	p, err := ParseSpec("seed=21,wal.tear=0.2,wal.crash=0.1")
	if err != nil {
		t.Fatal(err)
	}
	a, b := p.WAL(3), p.WAL(3)
	var tears, crashes int
	for i := 0; i < 1000; i++ {
		av, bv := a.Append(), b.Append()
		if av != bv {
			t.Fatalf("append %d: %+v vs %+v", i, av, bv)
		}
		if av.Tear && av.Crash {
			t.Fatalf("append %d: both Tear and Crash set", i)
		}
		if av.Tear {
			tears++
			if av.KeepFrac < 0 || av.KeepFrac >= 1 {
				t.Fatalf("append %d: KeepFrac %v outside [0,1)", i, av.KeepFrac)
			}
		}
		if av.Crash {
			crashes++
		}
	}
	if tears == 0 || crashes == 0 {
		t.Fatalf("1000 appends at tear=0.2/crash=0.1 drew tears=%d crashes=%d", tears, crashes)
	}
	// Different set labels draw different streams.
	c, d := p.WAL(4), p.WAL(3)
	same := 0
	for i := 0; i < 500; i++ {
		if c.Append() == d.Append() {
			same++
		}
	}
	if same == 500 {
		t.Fatal("different WAL labels produced identical fault streams")
	}
}

func TestWindowContains(t *testing.T) {
	s := time.Unix(100, 0)
	w := Window{Start: s, End: s.Add(time.Minute)}
	if !w.Contains(s) {
		t.Error("window should contain its start")
	}
	if w.Contains(s.Add(time.Minute)) {
		t.Error("window should exclude its end")
	}
	if w.Contains(s.Add(-time.Second)) || w.Contains(s.Add(2*time.Minute)) {
		t.Error("window contains points outside itself")
	}
}
