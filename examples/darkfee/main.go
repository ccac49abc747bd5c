// Dark-fee example: the §5.4 pipeline — price a mempool against an
// acceleration service (Appendix G / Figure 14), then detect dark-fee
// transactions in the chain by their SPPE signature and validate against
// the service's public oracle (Table 4).
//
//	go run ./examples/darkfee
package main

import (
	"fmt"
	"log"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/core"
	"chainaudit/internal/dataset"
	"chainaudit/internal/index"
	"chainaudit/internal/report"
	"chainaudit/internal/stats"
)

func main() {
	ds, err := dataset.BuildC(dataset.Options{Seed: 33, Duration: 24 * time.Hour})
	if err != nil {
		log.Fatal(err)
	}
	c := ds.Result.Chain
	svc := ds.Services["BTC.com"]

	// Part 1: how dark fees price. Quote the acceleration of an average
	// transaction against a hot market.
	tx := &chain.Tx{VSize: 250, Fee: 2_500} // 10 sat/vB
	tx.Inputs = []chain.TxIn{{Address: "user", Value: chain.BTC + tx.Fee}}
	tx.Outputs = []chain.TxOut{{Address: "merchant", Value: chain.BTC}}
	tx.ComputeID()
	var quotes []float64
	for i := 0; i < 1000; i++ {
		quotes = append(quotes, float64(svc.Quote(tx, 80))/float64(tx.Fee))
	}
	q := stats.Summarize(quotes)
	fmt.Printf("dark-fee quotes for a 10 sat/vB transaction, as multiples of its public fee:\n  %s\n", q)
	fmt.Println("  (the paper measured mean ≈566x, median ≈117x against BTC.com)")

	// Part 2: detect accelerated transactions in BTC.com's blocks from
	// position evidence alone. The index computes each block's position
	// analysis once, shared by all five thresholds.
	aud := core.NewIndexedAuditor(index.Build(c, ds.Registry))
	fmt.Println("\nSPPE-threshold detector over BTC.com blocks:")
	rows := aud.ValidateDarkFee("BTC.com",
		[]float64{100, 99, 90, 50, 1}, svc.IsAccelerated)
	t := report.NewTable("", "SPPE >=", "candidates", "oracle-confirmed", "precision %")
	for _, r := range rows {
		t.AddRow(r.MinSPPE, r.Candidates, r.Accelerated, r.Precision()*100)
	}
	if err := t.Render(logWriter{}); err != nil {
		log.Fatal(err)
	}

	// Part 3: the baseline — random transactions are essentially never
	// accelerated (the paper found 0 in a 1000-tx sample).
	sampled, accel := aud.DarkFeeBaseline("BTC.com", 17, svc.IsAccelerated)
	fmt.Printf("\nrandom-sample baseline: %d of %d accelerated (%.2f%%)\n",
		accel, sampled, float64(accel)*100/float64(sampled))
}

// logWriter adapts stdout for report rendering without importing os twice.
type logWriter struct{}

func (logWriter) Write(p []byte) (int, error) {
	fmt.Print(string(p))
	return len(p), nil
}
