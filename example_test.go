package repro_test

import (
	"context"
	"fmt"

	"repro"
)

// Peeling a below-threshold hypergraph empties the 2-core in
// O(log log n) rounds (Theorem 1 of the paper).
func ExampleRuntime_Peel() {
	rt := repro.NewRuntime(repro.RuntimeOptions{})
	defer rt.Shutdown(context.Background())
	g := repro.NewUniformHypergraph(100000, 70000, 4, 42) // c = 0.7 < 0.772
	res, err := rt.Peel(context.Background(), g, 2, repro.PeelOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("empty core:", res.Empty())
	fmt.Println("rounds in [11, 14]:", res.Rounds >= 11 && res.Rounds <= 14)
	// Output:
	// empty core: true
	// rounds in [11, 14]: true
}

// The threshold formula (Equation 2.1) gives the exact density where the
// k-core appears.
func ExampleThreshold() {
	cstar, _ := repro.Threshold(2, 4)
	fmt.Printf("c*(2,4) = %.5f\n", cstar)
	// Output:
	// c*(2,4) = 0.77228
}

// The idealized recurrence predicts the number of peeling rounds for a
// given instance size (Table 1 of the paper converges to 13 at c = 0.7).
func ExamplePredictRounds() {
	rounds, ok, _ := repro.PredictRounds(repro.RecurrenceParams{K: 2, R: 4, C: 0.7}, 1e6, 100)
	fmt.Println(rounds, ok)
	// Output:
	// 13 true
}

// An IBLT stores a set in O(set) cells and gives it back by peeling.
func ExampleIBLT() {
	t := repro.NewIBLT(64, 3, 7)
	t.Insert(100)
	t.Insert(200)
	t.Insert(300)
	added, _, ok := t.Decode()
	fmt.Println(ok, len(added))
	// Output:
	// true 3
}

// Subtracting two IBLTs and decoding yields the symmetric difference —
// set reconciliation in O(difference) space.
func ExampleIBLT_Subtract() {
	a := repro.NewIBLT(64, 3, 7)
	b := repro.NewIBLT(64, 3, 7)
	for _, k := range []uint64{1, 2, 3, 4} {
		a.Insert(k)
	}
	for _, k := range []uint64{3, 4, 5} {
		b.Insert(k)
	}
	a.Subtract(b)
	onlyA, onlyB, ok := a.Decode()
	fmt.Println(ok, len(onlyA), len(onlyB))
	// Output:
	// true 2 1
}

// A minimal perfect hash maps n keys bijectively onto [0, n).
func ExampleBuildMPHF() {
	keys := []uint64{11, 22, 33, 44, 55}
	f, err := repro.BuildMPHF(keys, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	seen := make([]bool, len(keys))
	for _, k := range keys {
		seen[f.Lookup(k)] = true
	}
	fmt.Println(seen)
	// Output:
	// [true true true true true]
}

// A static map stores key → value pairs in ~1.23 slots per key with no
// key storage.
func ExampleBuildStaticMap() {
	keys := []uint64{10, 20, 30}
	values := []uint64{111, 222, 333}
	m, err := repro.BuildStaticMap(keys, values, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(m.Lookup(10), m.Lookup(20), m.Lookup(30))
	// Output:
	// 111 222 333
}
