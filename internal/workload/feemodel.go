// Package workload generates the transaction streams the simulation feeds
// to the network: ordinary user payments with an empirically-shaped,
// congestion-responsive fee-rate model, CPFP children, mining pools' own
// payout transactions (the self-interest set of §5.2), scam payments
// (§5.3), and the arrival-rate schedules that produce the congestion
// regimes of §4.1.
package workload

import (
	"math"

	"chainaudit/internal/chain"
	"chainaudit/internal/mempool"
	"chainaudit/internal/stats"
)

// FeeModel samples public fee-rates. Rates are log-normal in sat/vB with a
// congestion-dependent location, calibrated to the paper's observations:
// roughly 70% of transactions offer 10–100 sat/vB (1e-4 to 1e-3 BTC/KB,
// Figure 4b), the distribution widens past 1000 sat/vB under heavy
// congestion (data set B saw 34.7% above 1e-3 BTC/KB), and a tiny fraction
// (~0.001%–0.07%) offer less than the 1 sat/vB recommended minimum.
type FeeModel struct {
	rng *stats.RNG
	// MedianRate is the median fee-rate under no congestion, in sat/vB.
	MedianRate float64
	// Sigma is the log-normal shape.
	Sigma float64
	// CongestionBoost multiplies the median per congestion level.
	CongestionBoost [4]float64
	// SubMinProb is the probability of issuing a below-minimum fee-rate
	// transaction (zero-fee half the time).
	SubMinProb float64
}

// NewFeeModel returns the calibrated default model drawing from rng.
func NewFeeModel(rng *stats.RNG) *FeeModel {
	return &FeeModel{
		rng:             rng,
		MedianRate:      25,
		Sigma:           1.0,
		CongestionBoost: [4]float64{0.7, 1.0, 1.6, 2.8},
		SubMinProb:      0.0004,
	}
}

// SampleRate draws a fee-rate for a transaction issued at the given
// congestion level.
func (m *FeeModel) SampleRate(level mempool.CongestionLevel) chain.SatPerVByte {
	if m.rng.Float64() < m.SubMinProb {
		// Below-minimum transactions: zero fee half the time, otherwise a
		// fractional rate in (0, 1) sat/vB.
		if m.rng.Float64() < 0.45 {
			return 0
		}
		return chain.SatPerVByte(m.rng.Float64() * 0.99)
	}
	boost := 1.0
	if int(level) >= 0 && int(level) < len(m.CongestionBoost) {
		boost = m.CongestionBoost[level]
	}
	mu := math.Log(m.MedianRate * boost)
	r := m.rng.LogNormal(mu, m.Sigma)
	if r < 1 {
		r = 1 // users above the sub-min branch round up to the relay floor
	}
	// Clamp the extreme tail: beyond ~1 BTC/KB (1e5 sat/vB) is fat-finger
	// territory the paper observed only in isolated cases.
	if r > 2e5 {
		r = 2e5
	}
	return chain.SatPerVByte(r)
}

// SizeModel samples virtual sizes: log-normal with a ~250 vB median,
// clamped to plausible extremes.
type SizeModel struct {
	rng    *stats.RNG
	Median float64
	Sigma  float64
	Min    int64
	Max    int64
}

// NewSizeModel returns the calibrated default model drawing from rng.
func NewSizeModel(rng *stats.RNG) *SizeModel {
	return &SizeModel{rng: rng, Median: 250, Sigma: 0.6, Min: 85, Max: 90_000}
}

// Sample draws one transaction virtual size.
func (m *SizeModel) Sample() int64 {
	v := int64(math.Round(m.rng.LogNormal(math.Log(m.Median), m.Sigma)))
	if v < m.Min {
		v = m.Min
	}
	if v > m.Max {
		v = m.Max
	}
	return v
}
