package iblt

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
	"repro/internal/recurrence"
	"repro/internal/rng"
)

func randomKeys(n int, seed uint64) []uint64 {
	gen := rng.New(seed)
	seen := make(map[uint64]bool, n)
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := gen.Uint64()
		if k != 0 && !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

func sortedCopy(xs []uint64) []uint64 {
	out := append([]uint64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalSets(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := sortedCopy(a), sortedCopy(b)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func TestInsertDecodeRoundTrip(t *testing.T) {
	keys := randomKeys(5000, 1)
	table := New(10000, 3, 7) // load 0.5, far below c*(2,3) ~ 0.818
	for _, k := range keys {
		table.Insert(k)
	}
	added, removed, ok := table.Decode()
	if !ok {
		t.Fatal("decode failed at load 0.5")
	}
	if len(removed) != 0 {
		t.Fatalf("unexpected removed keys: %d", len(removed))
	}
	if !equalSets(added, keys) {
		t.Fatal("decoded set differs from inserted set")
	}
}

func TestDecodeParallelRoundTrip(t *testing.T) {
	keys := randomKeys(5000, 2)
	table := New(10000, 3, 7)
	table.InsertAll(keys)
	res := table.DecodeParallel()
	if !res.Complete {
		t.Fatal("parallel decode failed at load 0.5")
	}
	if !equalSets(res.Added, keys) {
		t.Fatal("parallel decoded set differs from inserted set")
	}
	if res.Rounds < 1 || res.Subrounds < res.Rounds {
		t.Errorf("rounds %d subrounds %d inconsistent", res.Rounds, res.Subrounds)
	}
}

func TestSerialAndParallelInsertEquivalent(t *testing.T) {
	keys := randomKeys(3000, 3)
	a := New(8000, 4, 9)
	b := New(8000, 4, 9)
	for _, k := range keys {
		a.Insert(k)
	}
	b.InsertAll(keys)
	for i := range a.count {
		if a.count[i] != b.count[i] || a.keySum[i] != b.keySum[i] || a.checkSum[i] != b.checkSum[i] {
			t.Fatalf("cell %d differs between serial and parallel insert", i)
		}
	}
}

func TestInsertDeleteCancels(t *testing.T) {
	keys := randomKeys(1000, 4)
	table := New(4000, 3, 11)
	for _, k := range keys {
		table.Insert(k)
	}
	for _, k := range keys {
		table.Delete(k)
	}
	if !table.empty() {
		t.Fatal("insert+delete did not cancel to the empty table")
	}
}

func TestSparseRecovery(t *testing.T) {
	// The Section 6 motivating workload: N items inserted, all but n
	// deleted; the survivors are recovered from O(n)-size state.
	const total, surviving = 50000, 2000
	keys := randomKeys(total, 5)
	table := New(4096, 4, 13) // load of survivors = 0.49
	table.InsertAll(keys)
	table.DeleteAll(keys[surviving:])
	added, removed, ok := table.Decode()
	if !ok {
		t.Fatal("sparse recovery failed")
	}
	if len(removed) != 0 {
		t.Fatalf("spurious removed keys: %d", len(removed))
	}
	if !equalSets(added, keys[:surviving]) {
		t.Fatal("recovered set differs from surviving set")
	}
}

func TestSetReconciliation(t *testing.T) {
	// Hosts A and B share a large common set; each has a few private
	// keys. Subtract + decode returns exactly the symmetric difference
	// with the correct sidedness.
	common := randomKeys(20000, 6)
	onlyA := randomKeys(300, 7)
	onlyB := randomKeys(310, 8)
	ta := New(2048, 3, 99)
	tb := New(2048, 3, 99)
	ta.InsertAll(common)
	ta.InsertAll(onlyA)
	tb.InsertAll(common)
	tb.InsertAll(onlyB)
	ta.Subtract(tb)
	added, removed, ok := ta.Decode()
	if !ok {
		t.Fatal("reconciliation decode failed")
	}
	if !equalSets(added, onlyA) {
		t.Errorf("A-side keys wrong: got %d, want %d", len(added), len(onlyA))
	}
	if !equalSets(removed, onlyB) {
		t.Errorf("B-side keys wrong: got %d, want %d", len(removed), len(onlyB))
	}
}

func TestSetReconciliationParallel(t *testing.T) {
	common := randomKeys(10000, 16)
	onlyA := randomKeys(200, 17)
	onlyB := randomKeys(190, 18)
	ta := New(1536, 3, 100)
	tb := New(1536, 3, 100)
	ta.InsertAll(common)
	ta.InsertAll(onlyA)
	tb.InsertAll(common)
	tb.InsertAll(onlyB)
	ta.Subtract(tb)
	res := ta.DecodeParallel()
	if !res.Complete {
		t.Fatal("parallel reconciliation decode failed")
	}
	if !equalSets(res.Added, onlyA) || !equalSets(res.Removed, onlyB) {
		t.Error("parallel reconciliation recovered wrong sets")
	}
}

func TestDecodeFailsAboveThreshold(t *testing.T) {
	// Load 0.9 > c*(2,3): the 2-core is non-empty w.h.p., so decoding
	// must stall with partial recovery (Tables 3-4's failing rows).
	keys := randomKeys(9000, 9)
	table := New(10000, 3, 15)
	table.InsertAll(keys)
	added, _, ok := table.Decode()
	if ok {
		t.Fatal("decode succeeded at load 0.9 (should be above threshold)")
	}
	frac := float64(len(added)) / float64(len(keys))
	if frac > 0.9 {
		t.Errorf("recovered fraction %.3f suspiciously high above threshold", frac)
	}
	// Every recovered key must genuinely be an inserted key.
	inserted := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		inserted[k] = true
	}
	for _, k := range added {
		if !inserted[k] {
			t.Fatalf("decoded bogus key %#x", k)
		}
	}
}

func TestSerialParallelSameRecoverySet(t *testing.T) {
	// Peeling is confluent, so serial and parallel recovery must return
	// the same key set even when both fail partway.
	for _, load := range []float64{0.5, 0.75, 0.83, 0.9} {
		cells := 9000
		keys := randomKeys(int(load*float64(cells)), uint64(10+int(load*100)))
		a := New(cells, 3, 21)
		a.InsertAll(keys)
		b := a.Clone()
		addedS, _, okS := a.Decode()
		res := b.DecodeParallel()
		if okS != res.Complete {
			t.Errorf("load %v: serial ok=%v parallel ok=%v", load, okS, res.Complete)
		}
		if !equalSets(addedS, res.Added) {
			t.Errorf("load %v: serial recovered %d keys, parallel %d, sets differ",
				load, len(addedS), len(res.Added))
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	table := New(1000, 3, 5)
	table.Insert(42)
	clone := table.Clone()
	clone.Insert(43)
	added, _, ok := table.Decode()
	if !ok || len(added) != 1 || added[0] != 42 {
		t.Error("clone mutation leaked into original")
	}
}

func TestZeroKeyPanics(t *testing.T) {
	table := New(100, 3, 1)
	defer func() {
		if recover() == nil {
			t.Error("Insert(0) did not panic")
		}
	}()
	table.Insert(0)
}

func TestIncompatibleSubtractPanics(t *testing.T) {
	a := New(1000, 3, 1)
	b := New(1000, 3, 2) // different seed
	defer func() {
		if recover() == nil {
			t.Error("incompatible Subtract did not panic")
		}
	}()
	a.Subtract(b)
}

func TestNewValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"r too small": func() { New(100, 1, 0) },
		"r too big":   func() { New(100, 9, 0) },
		"no cells":    func() { New(0, 3, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestCellsRoundedToSubtables(t *testing.T) {
	table := New(1000, 3, 1)
	if table.Cells()%3 != 0 || table.Cells() < 1000 {
		t.Errorf("Cells() = %d, want multiple of 3 >= 1000", table.Cells())
	}
	if table.R() != 3 {
		t.Errorf("R() = %d", table.R())
	}
	if l := table.Load(501); l <= 0.4 || l >= 0.6 {
		t.Errorf("Load(501) = %v", l)
	}
}

func TestDecodeQuickRoundTrip(t *testing.T) {
	// Property: any set of distinct nonzero keys at low load round-trips,
	// serially and in parallel.
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%200) + 1
		keys := randomKeys(n, seed)
		table := New(n*4+16, 3, seed^0xabc)
		table.InsertAll(keys)
		clone := table.Clone()
		added, removed, ok := table.Decode()
		if !ok || len(removed) != 0 || !equalSets(added, keys) {
			return false
		}
		res := clone.DecodeParallel()
		return res.Complete && equalSets(res.Added, keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

func TestParallelRoundsReasonable(t *testing.T) {
	// The number of full rounds needed by parallel recovery should be in
	// the O(log log n) ballpark at moderate load — single digits for 1e4
	// keys — not O(n).
	keys := randomKeys(10000, 11)
	table := New(16384, 4, 31) // load ~0.61 < 0.772
	table.InsertAll(keys)
	res := table.DecodeParallel()
	if !res.Complete {
		t.Fatal("decode failed")
	}
	if res.Rounds > 20 {
		t.Errorf("parallel decode took %d rounds, want O(log log n) ~ single digits", res.Rounds)
	}
}

func BenchmarkInsertSerial(b *testing.B) {
	keys := randomKeys(1<<14, 1)
	table := New(1<<16, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			table.Insert(k)
		}
		for _, k := range keys {
			table.Delete(k)
		}
	}
}

func BenchmarkInsertParallel(b *testing.B) {
	keys := randomKeys(1<<14, 1)
	table := New(1<<16, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.InsertAll(keys)
		table.DeleteAll(keys)
	}
}

func BenchmarkDecodeSerial(b *testing.B) {
	keys := randomKeys(3<<12, 1)
	master := New(1<<14, 3, 1)
	master.InsertAll(keys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		table := master.Clone()
		b.StartTimer()
		table.Decode()
	}
}

func BenchmarkDecodeParallel(b *testing.B) {
	keys := randomKeys(3<<12, 1)
	master := New(1<<14, 3, 1)
	master.InsertAll(keys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		table := master.Clone()
		b.StartTimer()
		table.DecodeParallel()
	}
}

// TestInsertAllWithPoolDecodes checks the pool-threaded bulk insert
// produces a decodable table holding exactly the inserted keys.
func TestInsertAllWithPoolDecodes(t *testing.T) {
	pool := parallel.NewPool(3)
	defer pool.Close()
	tb := New(8192, 3, 11)
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	if err := tb.InsertAllCtx(context.Background(), keys, pool); err != nil {
		t.Fatal(err)
	}
	added, removed, ok := tb.Decode()
	if !ok || len(added) != len(keys) || len(removed) != 0 {
		t.Fatalf("decode after InsertAllCtx: ok=%v added=%d removed=%d", ok, len(added), len(removed))
	}
	tb2 := New(8192, 3, 11)
	if err := tb2.InsertAllCtx(context.Background(), keys, pool); err != nil {
		t.Fatal(err)
	}
	if err := tb2.applyAllCtx(context.Background(), keys, -1, pool); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tb2.Decode(); !ok {
		t.Fatal("insert+delete with pool should leave an empty table")
	}
}

// TestDecodeSubroundsMatchRecurrence is the paper's round bound as an
// oracle on the server's decoder: the frontier decode of 2^17 keys in a
// 3-hash table ends within 4 subrounds of the count the Appendix B
// recurrence predicts for its load, keys/cells edges per vertex on the
// table's cells, from far below the threshold c*(2,3) ≈ 0.818 to just
// below it.
//
// The two counts differ in what they measure. res.Subrounds is the
// index of the last subround that recovered a key. PredictSubrounds is
// the first subround after which the expected surviving cells, summed
// over the three subtables, fall below 1/2; the recurrence refreshes a
// subtable's survivors only at its own subround, so that sum lags the
// last recovery by r−1 = 2 subrounds, and by one more when its last
// value sits just above 1/2. The decoder reads 2–4 below the
// prediction on every instance here (12 vs 14 at load 0.6, 47–48 vs 51
// at 0.8), so at load 0.8 seed 2 the tolerance has no slack left.
func TestDecodeSubroundsMatchRecurrence(t *testing.T) {
	if raceEnabled {
		t.Skip("twelve 2^17-key decodes take ~40 s under the race detector; the oracle is a count, not a race")
	}
	const keys = 1 << 17
	pool := parallel.NewPool(2)
	defer pool.Close()
	for _, load := range []float64{0.6, 0.7, 0.75, 0.8} {
		for seed := uint64(1); seed <= 3; seed++ {
			tb := New(int(keys/load), 3, seed)
			if err := tb.InsertAllCtx(context.Background(), randomKeys(keys, seed), pool); err != nil {
				t.Fatal(err)
			}
			c := float64(keys) / float64(tb.Cells())
			want, ok, err := recurrence.Params{K: 2, R: 3, C: c}.PredictSubrounds(float64(tb.Cells()), 200)
			if err != nil || !ok {
				t.Fatalf("load %v: no prediction (ok %v, err %v)", load, ok, err)
			}
			res, err := tb.DecodeParallelFrontierCtx(context.Background(), pool)
			if err != nil || !res.Complete || len(res.Added) != keys {
				t.Fatalf("load %v seed %d: decode failed (err %v, complete %v)", load, seed, err, res != nil && res.Complete)
			}
			if d := res.Subrounds - want; d < -4 || d > 4 {
				t.Errorf("load %v seed %d: %d subrounds, recurrence predicts %d (tolerance 4)", load, seed, res.Subrounds, want)
			}
		}
	}
}
