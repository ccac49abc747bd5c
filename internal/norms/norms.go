// Package norms implements candidate transaction-prioritization norms
// beyond the fee-rate norm, addressing the paper's concluding discussion
// (§6.1): "What aspects of transactions besides fee-rate should miners be
// allowed to consider when ordering them? For instance, should the waiting
// time of transactions also be considered to avoid indefinitely delaying
// some transactions? Should the transaction value be a factor?"
//
// Each norm is a gbt.Policy, so pools can mine under it directly and the
// resulting chains can be characterized with the same audit machinery —
// the paper's third discussion question.
package norms

import (
	"math"
	"sort"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/gbt"
	"chainaudit/internal/mempool"
	"chainaudit/internal/stats"
)

// FeeRateWithAging ranks transactions by fee-rate plus an aging credit:
// every target-block-interval of waiting adds AgingRate sat/vB of virtual
// priority. Old transactions cannot starve — after enough blocks, any
// transaction out-ranks fresh top-fee traffic.
type FeeRateWithAging struct {
	// AgingRate is the virtual fee-rate credit per 10 minutes waited, in
	// sat/vB.
	AgingRate float64
	// Now anchors age computation. When zero, each Build anchors on the
	// newest first-seen time among the entries (so the policy works
	// unmodified inside miners, whose template builds carry no clock).
	Now time.Time
}

// Name implements gbt.Policy.
func (p FeeRateWithAging) Name() string { return "feerate+aging" }

// Build implements gbt.Policy.
func (p FeeRateWithAging) Build(entries []*mempool.Entry, maxVSize int64) gbt.Template {
	now := p.Now
	if now.IsZero() {
		for _, e := range entries {
			if e.FirstSeen.After(now) {
				now = e.FirstSeen
			}
		}
	}
	return gbt.BuildWithScore(entries, maxVSize, func(e *mempool.Entry) float64 {
		age := now.Sub(e.FirstSeen)
		if age < 0 {
			age = 0
		}
		return float64(e.Tx.FeeRate()) + p.AgingRate*age.Minutes()/10
	})
}

// ValueDensity ranks transactions by log-value density:
// log10(1 + transferred BTC) per kilo-vbyte, ignoring fees entirely. It is
// the "transaction value as a factor" strawman the paper raises: large
// transfers win regardless of what they pay, so fee revenue collapses and
// small payments starve — the characterization experiment quantifies both.
type ValueDensity struct{}

// Name implements gbt.Policy.
func (ValueDensity) Name() string { return "value-density" }

// Score returns the value-density of one entry.
func (ValueDensity) Score(e *mempool.Entry) float64 {
	if e.Tx.VSize <= 0 {
		return 0
	}
	btc := e.Tx.OutputValue().BTCValue()
	return math.Log10(1+btc) * 1000 / float64(e.Tx.VSize)
}

// Build implements gbt.Policy.
func (v ValueDensity) Build(entries []*mempool.Entry, maxVSize int64) gbt.Template {
	return gbt.BuildWithScore(entries, maxVSize, v.Score)
}

// Characterization summarizes how one norm treats a workload, the metrics
// the paper's neutrality debate turns on.
type Characterization struct {
	Norm string
	// DelayP50/P99/Max are commit delays in blocks over all confirmed
	// transactions observed.
	DelayP50, DelayP99, DelayMax float64
	// LowFeeDelayP50 is the median delay of the cheapest decile — the
	// constituency aging norms protect.
	LowFeeDelayP50 float64
	// Starved counts observed transactions that waited more than
	// StarvationHorizon blocks or never confirmed.
	Starved int
	// FeePerBlock is the mean fee revenue per block in satoshi — what
	// value-blind norms give up.
	FeePerBlock float64
	// Confirmed / Observed are the raw counts.
	Confirmed, Observed int
}

// StarvationHorizon is the delay (in blocks) beyond which a transaction
// counts as starved.
const StarvationHorizon = 50

// Characterize measures a mined chain against an observer's first-contact
// records.
func Characterize(norm string, c *chain.Chain, seen map[chain.TxID]int64) Characterization {
	out := Characterization{Norm: norm, Observed: len(seen)}
	type obs struct {
		delay float64
		rate  float64
	}
	var all []obs
	//lint:allow maporder order-free: every statistic drawn from all is a percentile over a sorted copy or a count, so iteration order never reaches the result (TestCharacterizeIgnoresSeenOrder)
	for id, tip := range seen {
		d, ok := c.ConfirmDelayBlocks(id, tip)
		if !ok {
			out.Starved++
			continue
		}
		out.Confirmed++
		if d > StarvationHorizon {
			out.Starved++
		}
		loc, _ := c.Locate(id)
		tx := c.BlockAt(loc.Height).Txs[loc.Index]
		all = append(all, obs{delay: float64(d), rate: float64(tx.FeeRate())})
	}
	if len(all) == 0 {
		return out
	}
	delays := make([]float64, len(all))
	for i, o := range all {
		delays[i] = o.delay
	}
	out.DelayP50 = percentile(delays, 50)
	out.DelayP99 = percentile(delays, 99)
	out.DelayMax = percentile(delays, 100)

	// Cheapest decile by fee-rate.
	rates := make([]float64, len(all))
	for i, o := range all {
		rates[i] = o.rate
	}
	cut := percentile(rates, 10)
	var lowDelays []float64
	for _, o := range all {
		if o.rate <= cut {
			lowDelays = append(lowDelays, o.delay)
		}
	}
	out.LowFeeDelayP50 = percentile(lowDelays, 50)

	var fees float64
	for _, b := range c.Blocks() {
		fees += float64(b.Fees())
	}
	if n := c.Len(); n > 0 {
		out.FeePerBlock = fees / float64(n)
	}
	return out
}

// percentile sorts a copy and delegates to stats.Percentile.
func percentile(sample []float64, p float64) float64 {
	if len(sample) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), sample...)
	sort.Float64s(c)
	return stats.Percentile(c, p)
}
