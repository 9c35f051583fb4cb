package repro

import (
	"context"
	"math"
	"testing"
)

// These tests exercise the public facade end to end, mirroring what the
// examples do.

func TestFacadePeelBelowThreshold(t *testing.T) {
	g := NewUniformHypergraph(100000, 70000, 4, 1)
	res, err := DefaultRuntime().Peel(context.Background(), g, 2, PeelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Empty() {
		t.Fatal("facade parallel peel failed below threshold")
	}
	seq := Peel(g, 2)
	if !seq.Empty() || seq.CoreVertices != res.CoreVertices {
		t.Fatal("facade sequential peel disagrees")
	}
}

func TestFacadeThreshold(t *testing.T) {
	cstar, xstar := Threshold(2, 4)
	if math.Abs(cstar-0.77228) > 1e-3 || xstar <= 0 {
		t.Errorf("Threshold(2,4) = (%v, %v)", cstar, xstar)
	}
	if f := CoreFraction(2, 4, 0.85); math.Abs(f-0.775) > 0.001 {
		t.Errorf("CoreFraction(2,4,0.85) = %v", f)
	}
}

func TestFacadePredictRounds(t *testing.T) {
	rounds, ok, err := PredictRounds(RecurrenceParams{K: 2, R: 4, C: 0.7}, 1e6, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || rounds != 13 {
		t.Errorf("PredictRounds = (%d, %v), want (13, true)", rounds, ok)
	}
	// Out-of-scope parameters are an error, not a panic (this is the
	// library path the robustness pass hardened).
	if _, _, err := PredictRounds(RecurrenceParams{K: 1, R: 4, C: 0.7}, 1e6, 50); err == nil {
		t.Error("PredictRounds(k=1) returned nil error, want validation error")
	}
}

func TestFacadeSubtables(t *testing.T) {
	g := NewPartitionedHypergraph(80000, 56000, 4, 2)
	res, err := DefaultRuntime().PeelSubtables(context.Background(), g, 2, PeelOptions{})
	if err != nil || !res.Empty() {
		t.Fatalf("facade subtable peel failed: %v", err)
	}
	if res.Subrounds < res.Rounds {
		t.Errorf("subrounds %d < rounds %d", res.Subrounds, res.Rounds)
	}
}

func TestFacadeIBLT(t *testing.T) {
	tbl := NewIBLT(4096, 3, 3)
	keys := []uint64{10, 20, 30, 40, 50}
	tbl.InsertAll(keys)
	added, removed, ok := tbl.Decode()
	if !ok || len(added) != len(keys) || len(removed) != 0 {
		t.Fatalf("facade IBLT decode: ok=%v added=%d removed=%d", ok, len(added), len(removed))
	}
}

func TestFacadeMPHF(t *testing.T) {
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	f, err := BuildMPHF(keys, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, len(keys))
	for _, k := range keys {
		v := f.Lookup(k)
		if v < 0 || v >= len(keys) || seen[v] {
			t.Fatal("facade MPHF not bijective")
		}
		seen[v] = true
	}
}

func TestFacadeXORSAT(t *testing.T) {
	in := NewRandomXORSAT(5000, 3500, 3, 5) // c = 0.7
	assign, err := SolveXORSAT(in)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Check(assign) {
		t.Fatal("facade XORSAT solution invalid")
	}
}

func TestFacadeErasure(t *testing.T) {
	code := NewErasureCode(512, 3, 6)
	data := make([]uint64, 5000)
	for i := range data {
		data[i] = uint64(i) + 1
	}
	checks := code.Encode(data)
	present := make([]bool, len(data))
	for i := range present {
		present[i] = true
	}
	// Erase 200 symbols (load 0.39).
	orig := make([]uint64, 200)
	for i := 0; i < 200; i++ {
		orig[i] = data[i*7]
		data[i*7] = 0
		present[i*7] = false
	}
	if err := code.Decode(data, present, checks); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if data[i*7] != orig[i] {
			t.Fatal("facade erasure decode corrupted a symbol")
		}
	}
}
