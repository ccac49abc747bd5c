package core

import (
	"context"
	"sort"

	"chainaudit/internal/chain"
	"chainaudit/internal/pipeline"
	"chainaudit/internal/stats"
)

// Default audit parameters. Zero-valued AuditOptions fields resolve to
// these, so AuditOptions{} reproduces the batch CLIs' defaults exactly.
const (
	// DefaultMinShare is the minimum estimated hash-rate share a pool needs
	// for the differential tests (the paper tests pools ≥ 4%).
	DefaultMinShare = 0.04
	// DefaultMinBlocks is the minimum auditable block count for a pool to
	// get its own PPE row (Figure 7 per-pool series).
	DefaultMinBlocks = 5
	// DefaultSPPE is the dark-fee detector threshold in percent (§5.4.2's
	// high-precision operating point).
	DefaultSPPE = 99
)

// AuditOptions carries every tunable of the audit API in one struct, so
// callers — the CLIs, the experiments suite, and chainauditd request
// handlers — share a single signature instead of the historical ad-hoc
// positional parameters (PPEReport(minBlocks), SelfInterestAudit(minShare),
// ...).
//
// Zero values select the paper's defaults. Thresholds that legitimately
// take the value zero (MinShare, MinBlocks, SPPE) use a negative value to
// mean "no threshold": 0 → package default, < 0 → 0.
type AuditOptions struct {
	// Ctx cancels long audits (the self-interest grid, the scam fan-out).
	// nil means context.Background(). Cancellation surfaces as the context's
	// error; partially computed results are discarded.
	Ctx context.Context
	// MinShare is the minimum pool share for differential tests
	// (0 → DefaultMinShare, negative → no minimum).
	MinShare float64
	// MinBlocks is the minimum auditable block count for per-pool PPE rows
	// (0 → DefaultMinBlocks, negative → no minimum).
	MinBlocks int
	// Windows > 1 additionally runs the Fisher-combined windowed
	// differential test over each significant self-interest finding
	// (§5.1.3).
	Windows int
	// SPPE is the dark-fee detector threshold in percent
	// (0 → DefaultSPPE, negative → 0).
	SPPE float64
}

// ctx returns the options' context, defaulting to Background.
func (o AuditOptions) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o AuditOptions) minShare() float64 {
	switch {
	case o.MinShare == 0:
		return DefaultMinShare
	case o.MinShare < 0:
		return 0
	}
	return o.MinShare
}

func (o AuditOptions) minBlocks() int {
	switch {
	case o.MinBlocks == 0:
		return DefaultMinBlocks
	case o.MinBlocks < 0:
		return 0
	}
	return o.MinBlocks
}

func (o AuditOptions) sppe() float64 {
	switch {
	case o.SPPE == 0:
		return DefaultSPPE
	case o.SPPE < 0:
		return 0
	}
	return o.SPPE
}

// AuditPPE computes the norm II position-prediction-error report (Figure 7):
// the distribution of per-block PPE overall and per pool, for pools with at
// least opts.MinBlocks auditable blocks.
func (a *Auditor) AuditPPE(opts AuditOptions) PPEReport {
	return ppeReport(a.span().recs(), opts.minBlocks())
}

// PPESeries returns the per-block PPE values in height order (the
// distribution Figure 7 plots), skipping blocks with nothing to audit.
func (a *Auditor) PPESeries() []float64 {
	var out []float64
	for _, rec := range a.span().recs() {
		if rec.PPEValid {
			out = append(out, rec.PPE)
		}
	}
	return out
}

// WindowedFinding is one Fisher-combined windowed test run for a
// significant self-interest finding (AuditOptions.Windows > 1).
type WindowedFinding struct {
	Owner  string
	Result WindowedResult
}

// SelfInterestReport bundles everything the self-interest audit produces:
// the significant findings (ordered by acceleration p-value), the full
// tested grid, and — when requested — the windowed re-tests of the
// findings.
type SelfInterestReport struct {
	// Findings are the rows rejecting the null at p < 0.001 in either tail,
	// ordered by acceleration p-value.
	Findings []SelfInterestFinding
	// All is every tested (owner, pool) combination, in grid order.
	All []SelfInterestFinding
	// Windows echoes the option the report was computed with; Windowed
	// holds the Fisher-combined re-tests of the findings when Windows > 1
	// (findings whose windowed test degenerates are skipped, as the CLI
	// always did).
	Windows  int
	Windowed []WindowedFinding
}

// AuditSelfInterest audits differential prioritization of pools' own
// transactions (§5.2): each pool's self-interest set is derived from its
// reward wallets, the full (owner, testing pool) grid is tested among pools
// with at least opts.MinShare of blocks, and — with opts.Windows > 1 — each
// significant finding is re-tested with the Fisher-combined windowed
// variant. Benign no-signal combinations are skipped; the first unexpected
// test failure (or the context's error on cancellation) is returned.
func (a *Auditor) AuditSelfInterest(opts AuditOptions) (SelfInterestReport, error) {
	sets := a.Index().SelfInterestSets()
	rep := SelfInterestReport{Windows: opts.Windows}
	all, err := a.SelfInterestGrid(sets, opts)
	if err != nil {
		return SelfInterestReport{}, err
	}
	rep.All = all
	for _, f := range all {
		if f.Result.SignificantAccel() || f.Result.SignificantDecel() {
			rep.Findings = append(rep.Findings, f)
		}
	}
	sort.SliceStable(rep.Findings, func(i, j int) bool {
		return rep.Findings[i].Result.AccelP < rep.Findings[j].Result.AccelP
	})
	if opts.Windows > 1 {
		s := a.span()
		for _, f := range rep.Findings {
			if err := opts.ctx().Err(); err != nil {
				return SelfInterestReport{}, err
			}
			res, err := s.windowedTest(f.Result.Pool, sets[f.Owner], opts.Windows)
			if err != nil {
				continue // window without signal, as the CLI skipped
			}
			rep.Windowed = append(rep.Windowed, WindowedFinding{Owner: f.Owner, Result: res})
		}
	}
	return rep, nil
}

// AuditScam runs the Table 3 pipeline over an arbitrary transaction set
// (e.g. all payments touching a scam wallet): one differential test per
// pool with at least opts.MinShare of blocks, fanned out in parallel with
// deterministic row order. Benign no-signal pools are skipped; other test
// errors — and the context's error on cancellation — are returned.
func (a *Auditor) AuditScam(set map[chain.TxID]bool, opts AuditOptions) ([]DifferentialResult, error) {
	s := a.span()
	pools := s.topPools(opts.minShare())
	results, batchErr := pipeline.MapCtx(pipeline.Default(), opts.ctx(), len(pools),
		func(ctx context.Context, i int) (DifferentialResult, error) {
			return s.differentialTest(pools[i], set)
		})
	if batchErr != nil {
		return nil, batchErr
	}
	var out []DifferentialResult
	for _, r := range results {
		if r.Err != nil {
			if BenignTestError(r.Err) {
				continue
			}
			return nil, r.Err
		}
		out = append(out, r.Value)
	}
	if len(out) == 0 {
		return nil, ErrNoCBlocks
	}
	return out, nil
}

// AuditLowFee runs the norm III census (§4.2.3): every confirmed
// transaction offering less than the relay minimum fee-rate, with the pool
// that mined it, in chain order.
func (a *Auditor) AuditLowFee(opts AuditOptions) []LowFeeConfirmation {
	return lowFee(a.span().recs())
}

// AuditDarkFee scans the named pool's blocks for transactions whose signed
// PPE meets opts.SPPE — the §5.4.2 dark-fee detector — ordered by SPPE
// descending.
func (a *Auditor) AuditDarkFee(pool string, opts AuditOptions) []Candidate {
	return detectAccelerated(a.span().recs(), pool, opts.sppe())
}

// ValidateDarkFee evaluates the dark-fee detector at each threshold against
// an acceleration oracle (Table 4). Thresholds are evaluated independently,
// so rows nest: every SPPE ≥ 99 candidate also appears in the SPPE ≥ 90 row.
func (a *Auditor) ValidateDarkFee(pool string, thresholds []float64, oracle func(chain.TxID) bool) []DetectorRow {
	recs := a.span().recs()
	out := make([]DetectorRow, 0, len(thresholds))
	for _, thr := range thresholds {
		cands := detectAccelerated(recs, pool, thr)
		row := DetectorRow{MinSPPE: thr, Candidates: len(cands)}
		for _, cand := range cands {
			if oracle(cand.TxID) {
				row.Accelerated++
			}
		}
		out = append(out, row)
	}
	return out
}

// DarkFeeBaseline estimates the acceleration base rate: the fraction of a
// deterministic sample of the pool's transactions the oracle confirms
// (Table 4's random-sample row; the paper found none in 1000). Transactions
// are sampled in block order, every sampleEvery-th one (< 1 means every).
func (a *Auditor) DarkFeeBaseline(pool string, sampleEvery int, oracle func(chain.TxID) bool) (sampled, accelerated int) {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	i := 0
	for _, rec := range a.span().recs() {
		if rec.Pool != pool {
			continue
		}
		for _, tx := range rec.Block.Body() {
			if i%sampleEvery == 0 {
				sampled++
				if oracle(tx.ID) {
					accelerated++
				}
			}
			i++
		}
	}
	return sampled, accelerated
}

// DifferentialTest runs the §5.1 test of the given transaction set against
// one pool, with θ0 estimated from the pool's share of the audited blocks.
func (a *Auditor) DifferentialTest(pool string, set map[chain.TxID]bool, opts AuditOptions) (DifferentialResult, error) {
	return a.span().differentialTest(pool, set)
}

// WindowedTest runs the Fisher-combined variant of DifferentialTest
// (§5.1.3): the audited blocks split into the given number of equal runs,
// one test per run with its own θ0, p-values combined with Fisher's method.
func (a *Auditor) WindowedTest(pool string, set map[chain.TxID]bool, windows int) (WindowedResult, error) {
	return a.span().windowedTest(pool, set, windows)
}

// TouchingAddress returns the audited transactions with the given address
// as a party — the scam-payment c-set of §5.3.
func (a *Auditor) TouchingAddress(addr chain.Address) map[chain.TxID]bool {
	out := make(map[chain.TxID]bool)
	for _, rec := range a.span().recs() {
		for _, tx := range rec.Block.Body() {
			if tx.Touches(addr) {
				out[tx.ID] = true
			}
		}
	}
	return out
}

// SelfInterestGrid tests every (owner, testing pool) combination of the
// given transaction sets against the pools with at least opts.MinShare of
// the audited blocks, fanning the differential tests out over the worker
// pool under opts.Ctx. Owners are iterated in sorted order and results
// merged back in grid order, so the output is bit-identical to the serial
// loop. Rows come back with the Benjamini–Hochberg adjusted acceleration
// p-value filled in.
//
// Benign no-signal rows (no c-blocks, pool absent, degenerate θ0) are
// skipped; any other test error aborts the grid and is returned — the first
// such error in grid order. A cancelled context returns its error.
func (a *Auditor) SelfInterestGrid(sets map[string]map[chain.TxID]bool, opts AuditOptions) ([]SelfInterestFinding, error) {
	s := a.span()
	testPools := s.topPools(opts.minShare())
	owners := make([]string, 0, len(sets))
	for owner := range sets {
		owners = append(owners, owner)
	}
	sort.Strings(owners)
	type combo struct{ owner, tester string }
	var combos []combo
	for _, owner := range owners {
		if len(sets[owner]) == 0 {
			continue
		}
		for _, tester := range testPools {
			combos = append(combos, combo{owner: owner, tester: tester})
		}
	}
	results, batchErr := pipeline.MapCtx(pipeline.Default(), opts.ctx(), len(combos),
		func(ctx context.Context, i int) (DifferentialResult, error) {
			return s.differentialTest(combos[i].tester, sets[combos[i].owner])
		})
	if batchErr != nil {
		return nil, batchErr
	}
	var all []SelfInterestFinding
	for i, r := range results {
		if r.Err != nil {
			if BenignTestError(r.Err) {
				continue
			}
			return nil, r.Err
		}
		all = append(all, SelfInterestFinding{Owner: combos[i].owner, Result: r.Value})
	}
	// Multiple-testing correction across the whole family before any
	// significance selection.
	if len(all) > 0 {
		ps := make([]float64, len(all))
		for i, f := range all {
			ps[i] = f.Result.AccelP
		}
		if qs, err := stats.BenjaminiHochberg(ps); err == nil {
			for i := range all {
				all[i].QAccel = qs[i]
			}
		}
	}
	return all, nil
}
