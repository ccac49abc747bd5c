package experiments

import (
	"math"
	"time"

	"chainaudit/internal/core"
	"chainaudit/internal/gbt"
	"chainaudit/internal/miner"
	"chainaudit/internal/obs"
	"chainaudit/internal/report"
	"chainaudit/internal/sim"
	"chainaudit/internal/stats"
	"chainaudit/internal/workload"
)

// AblationPolicyGap quantifies the benign PPE residual: miners running raw
// fee-rate templates versus ancestor-score templates, both audited against
// the paper's raw fee-rate norm. The gap between the two distributions is
// the part of Figure 7's error attributable to CPFP-aware selection rather
// than misbehaviour.
func (s *Suite) AblationPolicyGap() (*report.Table, error) {
	defer obs.Timed("experiment.ablation.policy_gap")()
	run := func(policy gbt.Policy, seed uint64) (stats.Summary, error) {
		pools := []*miner.Pool{miner.NewPool("P1", "/P1/", 0.6, 2), miner.NewPool("P2", "/P2/", 0.4, 2)}
		for _, p := range pools {
			p.Policy = policy
		}
		capacity := int64(60_000)
		rate := 1.0 * float64(capacity) / 600.0 / 300.0
		res, err := sim.Run(sim.Config{
			Seed:           seed,
			Duration:       10 * time.Hour,
			Pools:          pools,
			BlockCapacity:  capacity,
			Arrivals:       workload.ConstantRate(rate),
			MaxArrivalRate: rate,
		})
		if err != nil {
			return stats.Summary{}, err
		}
		return stats.Summarize(core.NewAuditor(res.Chain).PPESeries()), nil
	}
	t := report.NewTable("Ablation: PPE under fee-rate vs ancestor-score mining", report.SummaryColumns("policy")...)
	fr, err := run(gbt.FeeRate{}, s.Seed+201)
	if err != nil {
		return nil, err
	}
	report.SummaryRow(t, "feerate", fr)
	as, err := run(gbt.AncestorScore{}, s.Seed+202)
	if err != nil {
		return nil, err
	}
	report.SummaryRow(t, "ancestorscore", as)
	return t, nil
}

// AblationBinomApprox compares the exact binomial tail with the paper's
// §5.1.3 normal approximation across a grid of (y, θ0, amplification)
// settings, reporting the log10 p-value discrepancy.
func (s *Suite) AblationBinomApprox() *report.Table {
	defer obs.Timed("experiment.ablation.binom_approx")()
	t := report.NewTable("Ablation: exact vs normal-approximation p-values",
		"y", "theta0", "x", "p_exact", "p_normal", "abs_log10_gap")
	for _, y := range []int64{20, 53, 200, 1000, 10_000} {
		for _, theta := range []float64{0.04, 0.1, 0.175} {
			for _, amp := range []float64{1.0, 1.5, 2.5} {
				x := int64(float64(y) * theta * amp)
				if x > y {
					x = y
				}
				exact := stats.BinomialSF(x-1, y, theta)
				approx := stats.NormalApproxP(x, y, theta, stats.Greater)
				gap := logGap(exact, approx)
				t.AddRow(int(y), theta, int(x), exact, approx, gap)
			}
		}
	}
	return t
}

// logGap returns |log10(a) - log10(b)| with values floored to stay finite.
func logGap(a, b float64) float64 {
	const floor = 1e-300
	if a < floor {
		a = floor
	}
	if b < floor {
		b = floor
	}
	return math.Abs(math.Log10(a) - math.Log10(b))
}

// AblationSnapshotSampling sweeps the Figure 6 snapshot sample size and
// reports the stability of the mean violating fraction — the paper samples
// 30 snapshots; the sweep shows the estimate has converged well before
// that.
func (s *Suite) AblationSnapshotSampling() *report.Table {
	defer obs.Timed("experiment.ablation.snapshot_sampling")()
	obs := s.A.Result.Observer("A")
	c := s.A.Result.Chain
	t := report.NewTable("Ablation: violation-fraction estimate vs snapshot sample size",
		"sample_n", "mean_fraction", "std")
	for _, n := range []int{5, 10, 20, 30, 50} {
		survey := core.ViolationSurvey(obs.Fulls, c, core.ViolationOptions{}, n, s.rng.Fork(uint64(3000+n)))
		fr := core.ViolationFractions(survey)
		sum := stats.Summarize(fr)
		t.AddRow(n, sum.Mean, sum.Std)
	}
	return t
}
