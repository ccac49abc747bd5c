// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md §3 for the experiment index). NewSuite goes through the
// process-local dataset cache, so the data sets are simulated once per
// process at a small scale; the shared suite additionally reuses one audit
// index per data set, so each benchmark measures the audit/analysis
// computation itself. Fig01, Table5, and the policy-gap ablation run their
// own simulations per iteration by design (the simulation *is* the
// experiment there).
//
// Run everything:
//
//	go test -bench=. -benchmem
package main

import (
	"sync"
	"testing"

	"chainaudit/internal/core"
	"chainaudit/internal/experiments"
	"chainaudit/internal/index"
)

var (
	benchOnce  sync.Once
	benchSuite *experiments.Suite
	benchErr   error
)

func getBenchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	benchOnce.Do(func() {
		// The dataset cache dedupes the underlying simulations, so this
		// once guard only preserves the suite's shared indexes across
		// benchmarks.
		benchSuite, benchErr = experiments.NewSuite(2026, 0.25)
	})
	if benchErr != nil {
		b.Fatalf("building suite: %v", benchErr)
	}
	return benchSuite
}

// BenchmarkBlockIndexBuild measures the one-time cost every indexed audit
// amortizes: attributing and position-analyzing all of data set C.
func BenchmarkBlockIndexBuild(b *testing.B) {
	s := getBenchSuite(b)
	c := s.C.Result.Chain
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ix := index.Build(c, s.C.Registry); ix.Len() != c.Len() {
			b.Fatal("short index")
		}
	}
}

// BenchmarkBlockIndexAppendIncremental measures the streaming counterpart
// of BenchmarkBlockIndexBuild: growing data set C's index block by block
// through AppendBlock (fresh chain, same attribution and position analysis,
// plus the per-append share refresh the batch path does once).
func BenchmarkBlockIndexAppendIncremental(b *testing.B) {
	s := getBenchSuite(b)
	blocks := s.C.Result.Chain.Blocks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := index.NewIncremental(s.C.Registry)
		for _, blk := range blocks {
			if _, err := ix.AppendBlock(blk); err != nil {
				b.Fatal(err)
			}
		}
		if ix.Len() != len(blocks) {
			b.Fatal("short index")
		}
	}
}

// BenchmarkWindowAuditPPE measures one sliding-window re-audit over the
// last 32 blocks of data set C — the per-request cost of the streaming
// audit endpoints after an append invalidates the result cache.
func BenchmarkWindowAuditPPE(b *testing.B) {
	s := getBenchSuite(b)
	last := s.CAuditor().Last(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := last.AuditPPE(core.AuditOptions{}); rep.Overall.N == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkSuiteFromCache measures a warm NewSuite: all three data sets
// served from the process-local cache.
func BenchmarkSuiteFromCache(b *testing.B) {
	getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewSuite(2026, 0.25); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig01NormShift(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig01NormShift(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Datasets(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.Table1(); len(tbl.Rows) != 3 {
			b.Fatal("table 1 rows")
		}
	}
}

func BenchmarkFig02PoolShares(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.Fig02PoolShares(); len(tbl.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig03Congestion(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb, fc, cum := s.Fig03Congestion()
		if len(fb.Series) == 0 || len(fc.Series) == 0 || len(cum.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig04DelaysFees(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fa, fb, fc := s.Fig04DelaysFees()
		if len(fa.Series) == 0 || len(fb.Series) == 0 || len(fc.Series) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig05FeeDelay(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := s.Fig05FeeDelay(); len(f.Series) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig06ViolationPairs(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		all, non := s.Fig06ViolationPairs(30)
		if len(all.Series) != 3 || len(non.Series) != 3 {
			b.Fatal("series")
		}
	}
}

func BenchmarkFig07PPE(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, overall := s.Fig07PPE(); overall.N == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig08PoolWallets(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.Fig08PoolWallets(); len(tbl.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkTable2SelfInterest(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, findings, err := s.Table2SelfInterest(); err != nil || len(findings) == 0 {
			b.Fatalf("findings=%d err=%v", len(findings), err)
		}
	}
}

func BenchmarkTable3Scam(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, rows, err := s.Table3Scam(); err != nil || len(rows) == 0 {
			b.Fatalf("rows=%d err=%v", len(rows), err)
		}
	}
}

func BenchmarkTable4DarkFee(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, rows := s.Table4DarkFee(); len(rows) != 5 {
			b.Fatal("rows")
		}
	}
}

func BenchmarkTable5FeeRevenue(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, rows, err := s.Table5FeeRevenue(); err != nil || len(rows) != 5 {
			b.Fatalf("rows=%d err=%v", len(rows), err)
		}
	}
}

func BenchmarkFig09MempoolB(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := s.Fig09MempoolB(); len(f.Series) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig10FeeratesByPool(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := s.Fig10FeeratesByPool(); len(f.Series) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig11CongestionFeesB(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := s.Fig11CongestionFeesB(); len(f.Series) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig12FeeDelayB(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := s.Fig12FeeDelayB(); len(f.Series) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig13ScamWindowShares(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.Fig13ScamWindowShares(); len(tbl.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig14AccelFees(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f, _ := s.Fig14AccelFees(); len(f.Series) != 2 {
			b.Fatal("series")
		}
	}
}

func BenchmarkNormIIICensus(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.NormIIICensus(); tbl == nil {
			b.Fatal("nil")
		}
	}
}

func BenchmarkExtFeeEstimatorBias(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExtFeeEstimatorBias(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtCensorshipPower(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExtCensorshipPower(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtDelaySignificance(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExtDelaySignificance(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtNormComparison(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExtNormComparison(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPolicyGap(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.AblationPolicyGap(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBinomApprox(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.AblationBinomApprox(); len(tbl.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkAblationSnapshotSampling(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.AblationSnapshotSampling(); len(tbl.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkExtConflictOutcomes(b *testing.B) {
	s := getBenchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExtConflictOutcomes(); err != nil {
			b.Fatal(err)
		}
	}
}
