package core

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"

	"chainaudit/internal/chain"
	"chainaudit/internal/index"
	"chainaudit/internal/poolid"
	"chainaudit/internal/stats"
)

// randomChain builds an n-block chain mined by four pools with uneven
// shares. Bodies mix random fee-rates (some below the relay minimum, some
// exactly at it, some zero-fee), payments to the pools' reward wallets (self-interest sets),
// payments to one watched address, CPFP children, and blocks ordered
// against the fee-rate norm — every fact the audits read.
func randomChain(t *testing.T, seed uint64, n int) (*chain.Chain, *poolid.Registry, chain.Address) {
	t.Helper()
	const watched = chain.Address("watched")
	pools := []string{"P1", "P2", "P3", "P4"}
	weights := []float64{0.45, 0.3, 0.17, 0.08}
	reg := registryFor(pools...)
	rng := stats.NewRNG(seed)
	c := chain.New()
	nonce := uint16(0)
	for h := int64(0); h < int64(n); h++ {
		pool, u := pools[len(pools)-1], rng.Float64()
		for i, w := range weights {
			if u < w {
				pool = pools[i]
				break
			}
			u -= w
		}
		var txs []*chain.Tx
		for k := 1 + rng.Intn(12); k > 0; k-- {
			nonce++
			rate := rng.Float64()*120 + 1
			switch u := rng.Float64(); {
			case u < 0.08:
				rate = 0
			case u < 0.2:
				rate = rng.Float64() * 0.99
			case u < 0.25:
				rate = float64(chain.MinRelayFeeRate) // the census boundary
			}
			tx := mkTx(rate, nonce)
			switch u := rng.Float64(); {
			case u < 0.15:
				tx.Outputs[0].Address = chain.Address("rw-/" + pools[rng.Intn(len(pools))] + "/")
			case u < 0.25:
				tx.Outputs[0].Address = watched
			case u < 0.3 && len(txs) > 0:
				tx.Inputs[0].PrevOut = chain.OutPoint{TxID: txs[len(txs)-1].ID}
			}
			tx.ComputeID()
			txs = append(txs, tx)
		}
		if rng.Float64() < 0.5 {
			rng.Shuffle(len(txs), func(i, j int) { txs[i], txs[j] = txs[j], txs[i] })
		}
		if err := c.Append(blockWith(630_000+h, "/"+pool+"/", txs...)); err != nil {
			t.Fatalf("seed %d height %d: %v", seed, h, err)
		}
	}
	return c, reg, watched
}

// ppeSection renders the Figure 7 section the chain-walking way: per-block
// PPE grouped by attribution.
func ppeSection(t *testing.T, c *chain.Chain, reg *poolid.Registry, minBlocks int) string {
	t.Helper()
	var all []float64
	perPool := map[string][]float64{}
	for _, b := range c.Blocks() {
		if v, ok := PPE(b); ok {
			all = append(all, v)
			perPool[reg.AttributeBlock(b)] = append(perPool[reg.AttributeBlock(b)], v)
		}
	}
	rep := PPEReport{Overall: stats.Summarize(all), PerPool: map[string]stats.Summary{}}
	for pool, vals := range perPool {
		if len(vals) >= minBlocks && pool != poolid.Unknown {
			rep.PerPool[pool] = stats.Summarize(vals)
		}
	}
	return renderText(t, func(w io.Writer) error { return WritePPESection(w, rep) })
}

func renderText(t *testing.T, f func(io.Writer) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := f(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// sameResult compares an audit result with its oracle's, treating nil and
// empty collections as equal.
func sameResult(got, want any) bool {
	if reflect.ValueOf(got).Len() == 0 && reflect.ValueOf(want).Len() == 0 {
		return true
	}
	return reflect.DeepEqual(got, want)
}

// sameTest compares a differential or windowed test outcome with its
// oracle's: both fail alike (benign or not), or both succeed identically.
func sameTest(got, want any, gotErr, wantErr error) bool {
	if gotErr != nil || wantErr != nil {
		return gotErr != nil && wantErr != nil && BenignTestError(gotErr) == BenignTestError(wantErr)
	}
	return reflect.DeepEqual(got, want)
}

// TestAuditorRetainedEqualsSuffixOracles is the one-audit-path property:
// over randomized chains, retention horizons, and windows, every audit an
// Auditor answers from an incremental index's retained records equals the
// chain-walking oracle over chain.Suffix of the blocks it audits — the
// last min(window, retained) blocks.
func TestAuditorRetainedEqualsSuffixOracles(t *testing.T) {
	const blocks = 48
	var exercised coverage
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		c, reg, watched := randomChain(t, seed, blocks)
		// Fixed c-sets drawn from the whole chain: each pool's
		// self-interest set plus the watched address's payments.
		sets := SelfInterestSets(c, reg)
		sets["watched"] = TouchingAddress(c, watched)
		for _, retain := range []int{0, 9, 20} {
			var opts []index.Option
			if retain > 0 {
				opts = append(opts, index.WithRetention(retain))
			}
			ix := index.NewIncremental(reg, opts...)
			for _, b := range c.Blocks() {
				if _, err := ix.AppendBlock(b); err != nil {
					t.Fatal(err)
				}
			}
			for _, window := range []int{0, 1, 5, 9, 20, blocks + 1} {
				n := ix.Len()
				if window > 0 && window < n {
					n = window
				}
				name := fmt.Sprintf("seed=%d retain=%d window=%d", seed, retain, window)
				exercised.add(checkAgainstOracles(t, name, NewIndexedAuditor(ix).Last(window), c.Suffix(n), reg, sets, watched))
			}
		}
	}
	// Guard against a vacuous pass: the generator must produce what each
	// audit looks for.
	if exercised.lowFee == 0 || exercised.darkFee == 0 || exercised.tests == 0 || exercised.fisher == 0 {
		t.Fatalf("property exercised too little: %+v", exercised)
	}
}

// coverage counts the non-empty oracle answers a property run compared.
type coverage struct{ lowFee, darkFee, tests, fisher int }

func (c *coverage) add(o coverage) {
	c.lowFee += o.lowFee
	c.darkFee += o.darkFee
	c.tests += o.tests
	c.fisher += o.fisher
}

func checkAgainstOracles(t *testing.T, name string, aud *Auditor, suffix *chain.Chain, reg *poolid.Registry,
	sets map[string]map[chain.TxID]bool, watched chain.Address) (seen coverage) {
	t.Helper()
	for _, minBlocks := range []int{1, DefaultMinBlocks} {
		got := renderText(t, func(w io.Writer) error {
			return WritePPESection(w, aud.AuditPPE(AuditOptions{MinBlocks: minBlocks}))
		})
		if want := ppeSection(t, suffix, reg, minBlocks); got != want {
			t.Errorf("%s: ppe (min %d blocks) diverged:\n--- oracle ---\n%s--- auditor ---\n%s", name, minBlocks, want, got)
		}
	}
	if got, want := aud.PPESeries(), PPESeries(suffix); !sameResult(got, want) {
		t.Errorf("%s: ppe series diverged", name)
	}
	got, want := aud.AuditLowFee(AuditOptions{}), LowFeeConfirmations(suffix, reg)
	if !sameResult(got, want) {
		t.Errorf("%s: lowfee diverged: %d vs %d rows", name, len(got), len(want))
	}
	seen.lowFee += len(want)
	if got, want := aud.TouchingAddress(watched), TouchingAddress(suffix, watched); !sameResult(got, want) {
		t.Errorf("%s: touching address diverged: %d vs %d txs", name, len(got), len(want))
	}

	thresholds := []float64{100, 99, 50, 1, 0}
	oracle := func(id chain.TxID) bool { return id[0]%3 == 0 }
	for _, pool := range []string{"P1", "P2", "P3", "P4", "Nobody"} {
		for _, o := range []AuditOptions{{}, {SPPE: 50}, {SPPE: -1}} {
			got, want := aud.AuditDarkFee(pool, o), DetectAccelerated(suffix, reg, pool, o.sppe())
			if !sameResult(got, want) {
				t.Errorf("%s: darkfee %s sppe %v diverged: %d vs %d candidates", name, pool, o.sppe(), len(got), len(want))
			}
			seen.darkFee += len(want)
		}
		if got, want := aud.ValidateDarkFee(pool, thresholds, oracle), ValidateDetector(suffix, reg, pool, thresholds, oracle); !sameResult(got, want) {
			t.Errorf("%s: dark-fee validation %s diverged:\n%+v\n%+v", name, pool, got, want)
		}
		gs, ga := aud.DarkFeeBaseline(pool, 3, oracle)
		ws, wa := BaselineAcceleratedRate(suffix, reg, pool, 3, oracle)
		if gs != ws || ga != wa {
			t.Errorf("%s: dark-fee baseline %s: (%d,%d) vs (%d,%d)", name, pool, gs, ga, ws, wa)
		}
	}

	if got, want := aud.span().topPools(DefaultMinShare), TopPoolsByShare(suffix, reg, DefaultMinShare); !sameResult(got, want) {
		t.Errorf("%s: pool roster diverged: %v vs %v", name, got, want)
	}
	for owner, set := range sets {
		for _, pool := range []string{"P1", "P2", "P3", "P4"} {
			got, gotErr := aud.DifferentialTest(pool, set, AuditOptions{})
			want, wantErr := DifferentialTestEstimated(suffix, reg, pool, set)
			if !sameTest(got, want, gotErr, wantErr) {
				t.Errorf("%s: differential test (%s, %s) diverged:\n%+v %v\n%+v %v", name, owner, pool, got, gotErr, want, wantErr)
			}
			if wantErr == nil {
				seen.tests++
			}
			for _, windows := range []int{2, 3} {
				got, gotErr := aud.span().windowedTest(pool, set, windows)
				want, wantErr := WindowedDifferentialTest(suffix, reg, pool, set, windows)
				if !sameTest(got, want, gotErr, wantErr) {
					t.Errorf("%s: Fisher test (%s, %s, %d windows) diverged:\n%+v %v\n%+v %v", name, owner, pool, windows, got, gotErr, want, wantErr)
				}
				if wantErr == nil {
					seen.fisher++
				}
			}
		}
	}
	return seen
}
