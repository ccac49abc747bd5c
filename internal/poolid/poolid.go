// Package poolid attributes mined blocks to mining pool operators (MPOs)
// the way the paper does: by matching marker strings the pools embed in
// their coinbase transactions (following Judmayer et al. and Romiti et al.),
// and by estimating normalized hash rates as each pool's share of mined
// blocks.
package poolid

import (
	"sort"
	"strings"

	"chainaudit/internal/chain"
)

// Unknown is the attribution result for blocks whose coinbase carries no
// recognizable marker (about 1.32% of blocks in the paper's data set C).
const Unknown = "Unknown"

// Marker maps one coinbase substring to a pool name.
type Marker struct {
	Substring string
	Pool      string
}

// Registry resolves coinbase payloads to pool names.
type Registry struct {
	markers []Marker
}

// NewRegistry builds a registry from the given markers. Longer substrings
// take precedence so that, e.g., "/BTC.com-fast/" wins over "/BTC.com/".
func NewRegistry(markers []Marker) *Registry {
	ms := append([]Marker(nil), markers...)
	sort.SliceStable(ms, func(i, j int) bool {
		return len(ms[i].Substring) > len(ms[j].Substring)
	})
	return &Registry{markers: ms}
}

// DefaultRegistry returns a registry covering the top-20 MPO roster used
// throughout the reproduction (see Roster).
func DefaultRegistry() *Registry {
	var ms []Marker
	for _, p := range Roster() {
		ms = append(ms, Marker{Substring: p.Marker, Pool: p.Name})
	}
	return NewRegistry(ms)
}

// Attribute returns the pool owning the coinbase payload, or Unknown.
func (r *Registry) Attribute(coinbaseTag string) string {
	for _, m := range r.markers {
		if strings.Contains(coinbaseTag, m.Substring) {
			return m.Pool
		}
	}
	return Unknown
}

// AttributeBlock resolves a block's miner via its coinbase tag.
func (r *Registry) AttributeBlock(b *chain.Block) string {
	return r.Attribute(b.MinerTag())
}

// Pool describes one mining pool operator in the canonical roster.
type Pool struct {
	Name string
	// Marker is the coinbase signature the pool embeds in its blocks.
	Marker string
	// HashRate is the pool's normalized hash rate in the data set C
	// analogue (taken from the paper's Figure 2c / Tables 2-3 numbers).
	HashRate float64
	// Wallets is how many distinct reward addresses the pool rotates
	// through (Figure 8a).
	Wallets int
}

// Roster returns the canonical top-20 MPO roster, ordered by hash rate
// descending. Rates sum to less than 1; the remainder models small
// unidentified miners. The top-10 names, rates, and wallet counts follow
// the paper's data set C; the tail is representative.
func Roster() []Pool {
	return []Pool{
		{Name: "F2Pool", Marker: "/F2Pool/", HashRate: 0.1753, Wallets: 12},
		{Name: "Poolin", Marker: "/Poolin/", HashRate: 0.1480, Wallets: 23},
		{Name: "BTC.com", Marker: "/BTC.com/", HashRate: 0.1199, Wallets: 14},
		{Name: "AntPool", Marker: "/AntPool/", HashRate: 0.1096, Wallets: 10},
		{Name: "Huobi", Marker: "/Huobi/", HashRate: 0.0750, Wallets: 8},
		{Name: "ViaBTC", Marker: "/ViaBTC/", HashRate: 0.0676, Wallets: 9},
		{Name: "1THash&58Coin", Marker: "/1THash&58Coin/", HashRate: 0.0611, Wallets: 6},
		{Name: "Binance Pool", Marker: "/Binance/", HashRate: 0.0550, Wallets: 7},
		{Name: "Okex", Marker: "/Okex/", HashRate: 0.0480, Wallets: 11},
		{Name: "SlushPool", Marker: "/SlushPool/", HashRate: 0.0375, Wallets: 56},
		{Name: "Lubian.com", Marker: "/Lubian.com/", HashRate: 0.0210, Wallets: 4},
		{Name: "BitFury", Marker: "/BitFury/", HashRate: 0.0160, Wallets: 5},
		{Name: "BytePool", Marker: "/BytePool/", HashRate: 0.0110, Wallets: 3},
		{Name: "NovaBlock", Marker: "/NovaBlock/", HashRate: 0.0085, Wallets: 3},
		{Name: "SpiderPool", Marker: "/SpiderPool/", HashRate: 0.0070, Wallets: 2},
		{Name: "TangPool", Marker: "/TangPool/", HashRate: 0.0055, Wallets: 2},
		{Name: "BitDeer", Marker: "/BitDeer/", HashRate: 0.0045, Wallets: 2},
		{Name: "Sigmapool", Marker: "/Sigmapool/", HashRate: 0.0040, Wallets: 2},
		{Name: "MiningCity", Marker: "/MiningCity/", HashRate: 0.0035, Wallets: 2},
		{Name: "KanoPool", Marker: "/KanoPool/", HashRate: 0.0028, Wallets: 1},
	}
}

// Share holds one pool's mined-block statistics over a chain.
type Share struct {
	Pool   string
	Blocks int
	Txs    int64
	// HashRate is the normalized hash rate estimate: Blocks / total.
	HashRate float64
}

// EstimateShares attributes every block of the chain and returns per-pool
// block counts, transaction counts, and hash-rate estimates, ordered by
// block count descending (ties broken by name for determinism).
func EstimateShares(c *chain.Chain, r *Registry) []Share {
	byPool := make(map[string]*Share)
	total := 0
	for _, b := range c.Blocks() {
		name := r.AttributeBlock(b)
		s := byPool[name]
		if s == nil {
			s = &Share{Pool: name}
			byPool[name] = s
		}
		s.Blocks++
		s.Txs += int64(len(b.Body()))
		total++
	}
	out := make([]Share, 0, len(byPool))
	for _, s := range byPool {
		if total > 0 {
			s.HashRate = float64(s.Blocks) / float64(total)
		}
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Blocks != out[j].Blocks {
			return out[i].Blocks > out[j].Blocks
		}
		return out[i].Pool < out[j].Pool
	})
	return out
}

// TopShares returns the first n shares (or fewer), excluding Unknown.
func TopShares(shares []Share, n int) []Share {
	out := make([]Share, 0, n)
	for _, s := range shares {
		if s.Pool == Unknown {
			continue
		}
		out = append(out, s)
		if len(out) == n {
			break
		}
	}
	return out
}

// HashRateOf returns the estimated hash rate for the named pool, or 0.
func HashRateOf(shares []Share, pool string) float64 {
	for _, s := range shares {
		if s.Pool == pool {
			return s.HashRate
		}
	}
	return 0
}

// RewardAddresses returns the distinct coinbase reward addresses each pool
// used across the chain (Figure 8a).
func RewardAddresses(c *chain.Chain, r *Registry) map[string]map[chain.Address]bool {
	out := make(map[string]map[chain.Address]bool)
	for _, b := range c.Blocks() {
		name := r.AttributeBlock(b)
		addr := b.RewardAddress()
		if addr == "" {
			continue
		}
		set := out[name]
		if set == nil {
			set = make(map[chain.Address]bool)
			out[name] = set
		}
		set[addr] = true
	}
	return out
}
