package stats

import (
	"errors"
	"sort"
)

// BenjaminiHochberg computes q-values (adjusted p-values controlling the
// false discovery rate) for a family of hypotheses. The self-interest audit
// tests every (transaction owner, mining pool) combination — dozens of
// hypotheses — so reporting BH-adjusted values guards the Table 2 style
// findings against multiple-testing artifacts, a correction the paper
// itself does not apply.
//
// The returned slice is aligned with the input: q[i] adjusts p[i].
func BenjaminiHochberg(pvalues []float64) ([]float64, error) {
	m := len(pvalues)
	if m == 0 {
		return nil, errors.New("stats: BenjaminiHochberg needs at least one p-value")
	}
	type idxP struct {
		i int
		p float64
	}
	sorted := make([]idxP, m)
	for i, p := range pvalues {
		if p < 0 || p > 1 || p != p {
			return nil, errors.New("stats: p-value out of [0,1]")
		}
		sorted[i] = idxP{i, p}
	}
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].p < sorted[b].p })
	q := make([]float64, m)
	// Step-up: q_(k) = min over j >= k of p_(j) * m / j.
	minSoFar := 1.0
	for k := m - 1; k >= 0; k-- {
		val := sorted[k].p * float64(m) / float64(k+1)
		if val < minSoFar {
			minSoFar = val
		}
		q[sorted[k].i] = minSoFar
	}
	return q, nil
}
