// Selfish-audit example: the full §5.2 pipeline on one pool — derive its
// self-interest transaction set from the chain alone (no ground truth),
// run the acceleration and deceleration tests, confirm with SPPE, and
// cross-check the windowed Fisher-combined variant from §5.1.3.
//
//	go run ./examples/selfishaudit [-pool ViaBTC]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"chainaudit/internal/core"
	"chainaudit/internal/dataset"
	"chainaudit/internal/index"
	"chainaudit/internal/stats"
)

func main() {
	pool := flag.String("pool", "ViaBTC", "mining pool to audit")
	flag.Parse()

	ds, err := dataset.BuildC(dataset.Options{Seed: 21, Duration: 24 * time.Hour})
	if err != nil {
		log.Fatal(err)
	}
	aud := core.NewIndexedAuditor(index.Build(ds.Result.Chain, ds.Registry))

	// Step 1: find the pool's wallets from its coinbase outputs, then every
	// confirmed transaction touching them — exactly the paper's §5.2
	// methodology, using only public chain data. The index caches the
	// wallet derivation alongside the pool attribution.
	sets := aud.Index().SelfInterestSets()
	set := sets[*pool]
	fmt.Printf("%s: %d self-interest transactions inferred from reward wallets\n", *pool, len(set))
	if len(set) == 0 {
		log.Fatalf("no self-interest transactions found for %q", *pool)
	}

	// Step 2: the one-sided binomial tests, over the prebuilt index.
	res, err := aud.DifferentialTest(*pool, set, core.AuditOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhash rate θ0 = %.4f (estimated from block share)\n", res.Theta0)
	fmt.Printf("c-blocks y = %d, mined by %s: x = %d (fair share would be ~%.1f)\n",
		res.Y, *pool, res.X, res.Theta0*float64(res.Y))
	fmt.Printf("acceleration test: p = %.3g (normal approx %.3g)\n", res.AccelP, res.AccelPNormal)
	fmt.Printf("deceleration test: p = %.3g\n", res.DecelP)

	// Step 3: the position evidence.
	fmt.Printf("SPPE within %s blocks: %+.1f%% over %d transactions\n", *pool, res.SPPE, res.SPPECount)

	switch {
	case res.SignificantAccel() && res.SPPE > 0:
		fmt.Printf("\nverdict: %s differentially ACCELERATES its own transactions\n", *pool)
	case res.SignificantDecel():
		fmt.Printf("\nverdict: %s differentially DECELERATES these transactions\n", *pool)
	default:
		fmt.Printf("\nverdict: no significant deviation at α = %g\n", stats.StrongSize)
	}

	// Step 4: robustness under drifting hash rates — split into windows and
	// combine with Fisher's method.
	win, err := aud.WindowedTest(*pool, set, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwindowed check (%d windows, Fisher combined): accel p = %.3g, decel p = %.3g\n",
		len(win.Windows), win.AccelP, win.DecelP)
}
