// Package accel models a mining pool's transaction acceleration service —
// the side channel behind the paper's "dark-fee transactions" (§5.4).
//
// Users pay the pool an opaque fee, outside the transaction itself, to have
// it mined with top priority. The package reproduces the two observable
// properties the paper measures: quoted prices dominate the public fee
// market (Appendix G: on average ~566× the public fee, median ~117×, such
// that public fee + dark fee would out-bid every pending transaction), and
// the service exposes a public oracle to check whether a given transaction
// was accelerated (used to validate the SPPE-based detector in Table 4).
package accel

import (
	"math"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/stats"
)

// Record is one purchased acceleration.
type Record struct {
	TxID chain.TxID
	// DarkFee is the opaque payment made to the pool, invisible on-chain.
	DarkFee chain.Amount
	// PublicFee is the transaction's on-chain fee at purchase time.
	PublicFee chain.Amount
	When      time.Time
}

// Service is one pool's acceleration desk.
type Service struct {
	pool string
	rng  *stats.RNG
	// MedianMultiplier and Sigma shape the log-normal dark-fee/public-fee
	// ratio (defaults calibrated to Appendix G).
	MedianMultiplier float64
	Sigma            float64
	records          map[chain.TxID]Record
	order            []chain.TxID
}

// NewService creates an acceleration service for the named pool.
func NewService(pool string, rng *stats.RNG) *Service {
	return &Service{
		pool:             pool,
		rng:              rng,
		MedianMultiplier: 117,
		Sigma:            1.5,
		records:          make(map[chain.TxID]Record),
	}
}

// Pool returns the operating pool's name.
func (s *Service) Pool() string { return s.pool }

// Quote prices the acceleration of tx given the best fee-rate currently
// pending (topRate). The quote always clears the public market: adding it
// to the public fee yields a fee-rate above topRate, and it is at least the
// sampled multiple of the public fee.
func (s *Service) Quote(tx *chain.Tx, topRate chain.SatPerVByte) chain.Amount {
	mult := s.rng.LogNormal(math.Log(s.MedianMultiplier), s.Sigma)
	byMultiple := chain.Amount(mult * float64(tx.Fee))
	// Price needed to out-bid the best pending fee-rate by 10%.
	need := chain.Amount(float64(topRate)*1.1*float64(tx.VSize)) - tx.Fee
	if need < 0 {
		need = 0
	}
	quote := byMultiple
	if need > quote {
		quote = need
	}
	// Floor: the desk never works for dust.
	if min := chain.Amount(10_000); quote < min {
		quote = min
	}
	return quote
}

// Accelerate registers a purchased acceleration and returns its record.
// Re-accelerating is idempotent (the original record wins).
func (s *Service) Accelerate(tx *chain.Tx, darkFee chain.Amount, when time.Time) Record {
	if r, ok := s.records[tx.ID]; ok {
		return r
	}
	r := Record{TxID: tx.ID, DarkFee: darkFee, PublicFee: tx.Fee, When: when}
	s.records[tx.ID] = r
	s.order = append(s.order, tx.ID)
	return r
}

// IsAccelerated is the public oracle: whether the transaction was
// accelerated at this pool. (BTC.com exposes the equivalent lookup; the
// paper uses it to validate its detector.)
func (s *Service) IsAccelerated(id chain.TxID) bool {
	_, ok := s.records[id]
	return ok
}

// Records returns all accelerations in purchase order.
func (s *Service) Records() []Record {
	out := make([]Record, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.records[id])
	}
	return out
}

// Len returns the number of accelerated transactions.
func (s *Service) Len() int { return len(s.records) }
