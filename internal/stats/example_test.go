package stats_test

import (
	"fmt"

	"chainaudit/internal/stats"
)

// The acceleration test on the paper's ViaBTC Table 2 row: a pool with a
// 6.76% hash rate mined 412 of the 720 blocks containing its own
// transactions.
func ExampleExactBinomialTest() {
	res, err := stats.ExactBinomialTest(412, 720, 0.0676, stats.Greater)
	if err != nil {
		panic(err)
	}
	fmt.Printf("significant at alpha=0.01: %v\n", res.Significant)
	fmt.Printf("p < 1e-100: %v\n", res.P < 1e-100)
	// Output:
	// significant at alpha=0.01: true
	// p < 1e-100: true
}

func ExampleFisherCombined() {
	// Combine per-window p-values (the §5.1.3 extension for drifting hash
	// rates).
	_, p, err := stats.FisherCombined([]float64{0.04, 0.03, 0.08})
	if err != nil {
		panic(err)
	}
	fmt.Printf("combined p < 0.01: %v\n", p < 0.01)
	// Output:
	// combined p < 0.01: true
}

func ExampleNewECDF() {
	e := stats.NewECDF([]float64{1, 2, 2, 3, 10})
	fmt.Printf("F(2) = %.1f\n", e.Eval(2))
	fmt.Printf("n = %d\n", e.Len())
	// Output:
	// F(2) = 0.6
	// n = 5
}

func ExampleBenjaminiHochberg() {
	q, err := stats.BenjaminiHochberg([]float64{0.005, 0.01, 0.03, 0.04})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%.2f\n", q)
	// Output:
	// [0.02 0.02 0.04 0.04]
}

func ExampleRNG_deterministic() {
	a := stats.NewRNG(42)
	b := stats.NewRNG(42)
	fmt.Println(a.Uint64() == b.Uint64())
	// Output:
	// true
}
