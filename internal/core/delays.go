package core

import (
	"sort"

	"chainaudit/internal/chain"
	"chainaudit/internal/index"
	"chainaudit/internal/mempool"
	"chainaudit/internal/poolid"
)

// SeenRecord is an observer's first-contact metadata for one transaction —
// the shape internal/sim records, duplicated here so the audit package does
// not depend on the simulator.
type SeenRecord struct {
	TipHeight  int64
	Congestion mempool.CongestionLevel
	FeeRate    chain.SatPerVByte
}

// FeeBand classifies fee-rates the way Figures 5 and 12 do, in BTC/KB:
// low < 1e-4, high in [1e-4, 1e-3), exorbitant ≥ 1e-3.
type FeeBand int

// Fee bands in ascending order.
const (
	FeeLow FeeBand = iota
	FeeHigh
	FeeExorbitant
)

// String names the band with the paper's thresholds.
func (f FeeBand) String() string {
	switch f {
	case FeeLow:
		return "<1e-4 BTC/KB"
	case FeeHigh:
		return "1e-4..1e-3 BTC/KB"
	case FeeExorbitant:
		return ">=1e-3 BTC/KB"
	default:
		return "invalid"
	}
}

// BandOf classifies a fee-rate.
func BandOf(r chain.SatPerVByte) FeeBand {
	switch btcKB := r.BTCPerKB(); {
	case btcKB < 1e-4:
		return FeeLow
	case btcKB < 1e-3:
		return FeeHigh
	default:
		return FeeExorbitant
	}
}

// CommitDelays computes, for every observed transaction that confirmed, the
// commit delay in blocks (1 = next block), optionally grouped. seen maps
// txid → first-contact record. The result is sorted: seen is a map, and an
// iteration-ordered slice would make downstream float accumulation depend
// on the scheduler rather than the seed.
func CommitDelays(c *chain.Chain, seen map[chain.TxID]SeenRecord) []float64 {
	var out []float64
	for id, rec := range seen {
		if d, ok := c.ConfirmDelayBlocks(id, rec.TipHeight); ok {
			out = append(out, float64(d))
		}
	}
	sort.Float64s(out)
	return out
}

// DelaysByFeeBand splits commit delays by the transaction's fee band —
// Figure 5's three series.
func DelaysByFeeBand(c *chain.Chain, seen map[chain.TxID]SeenRecord) map[FeeBand][]float64 {
	out := make(map[FeeBand][]float64)
	for id, rec := range seen {
		d, ok := c.ConfirmDelayBlocks(id, rec.TipHeight)
		if !ok {
			continue
		}
		band := BandOf(rec.FeeRate)
		out[band] = append(out[band], float64(d))
	}
	return out
}

// FeeRatesByCongestion splits observed fee-rates (in BTC/KB, the paper's
// plotting unit) by the congestion level at issue time — Figure 4c.
func FeeRatesByCongestion(seen map[chain.TxID]SeenRecord) map[mempool.CongestionLevel][]float64 {
	out := make(map[mempool.CongestionLevel][]float64)
	for _, rec := range seen {
		out[rec.Congestion] = append(out[rec.Congestion], rec.FeeRate.BTCPerKB())
	}
	return out
}

// ConfirmedFeeRates returns the fee-rates (BTC/KB) of all confirmed
// transactions in the chain — Figure 4b's series.
func ConfirmedFeeRates(c *chain.Chain) []float64 {
	var out []float64
	for _, b := range c.Blocks() {
		for _, tx := range b.Body() {
			out = append(out, tx.FeeRate().BTCPerKB())
		}
	}
	return out
}

// ConfirmedFeeRatesByPool splits confirmed fee-rates per mining pool —
// Figure 10's per-MPO series.
func ConfirmedFeeRatesByPool(c *chain.Chain, reg *poolid.Registry) map[string][]float64 {
	out := make(map[string][]float64)
	for _, b := range c.Blocks() {
		pool := reg.AttributeBlock(b)
		for _, tx := range b.Body() {
			out[pool] = append(out[pool], tx.FeeRate().BTCPerKB())
		}
	}
	return out
}

// LowFeeConfirmation is one confirmed below-minimum fee-rate transaction
// (norm III violation census, §4.2.3).
type LowFeeConfirmation struct {
	TxID    chain.TxID
	Height  int64
	Pool    string
	FeeRate chain.SatPerVByte
	ZeroFee bool
}

// lowFee finds every transaction in the records offering less than the
// recommended minimum fee-rate, with the pool that mined it, in chain order.
func lowFee(recs []index.BlockRecord) []LowFeeConfirmation {
	var out []LowFeeConfirmation
	for i := range recs {
		rec := &recs[i]
		for j, tx := range rec.Block.Body() {
			if rec.FeeRates[j] >= chain.MinRelayFeeRate {
				continue
			}
			out = append(out, LowFeeConfirmation{
				TxID:    tx.ID,
				Height:  rec.Block.Height,
				Pool:    rec.Pool,
				FeeRate: rec.FeeRates[j],
				ZeroFee: tx.Fee == 0,
			})
		}
	}
	return out
}
