package iblt

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
)

func TestDecodeParallelFrontierRoundTrip(t *testing.T) {
	keys := randomKeys(5000, 30)
	table := New(10000, 3, 7)
	table.InsertAll(keys)
	res := table.DecodeParallelFrontier()
	if !res.Complete {
		t.Fatal("frontier decode failed at load 0.5")
	}
	if !equalSets(res.Added, keys) {
		t.Fatal("frontier decoded set differs from inserted set")
	}
}

// TestFrontierMatchesFullScanDecode checks the parallel decoder's two
// scan policies against each other and against the serial decoder, at
// several pool sizes: same recovered sets, same completeness, and the
// same round and subround counts everywhere.
func TestFrontierMatchesFullScanDecode(t *testing.T) {
	ctx := context.Background()
	rounds := map[float64][2]int{}
	for _, workers := range []int{1, 2, 3, 8} {
		pool := parallel.NewPool(workers)
		for _, load := range []float64{0.4, 0.75, 0.83, 0.9} {
			cells := 9000
			keys := randomKeys(int(load*float64(cells)), uint64(31+int(100*load)))
			a := New(cells, 3, 77)
			a.InsertAll(keys)
			b := a.Clone()
			added, _, ok := a.Clone().Decode()
			fullScan, err := a.DecodeParallelCtx(ctx, pool)
			if err != nil {
				t.Fatal(err)
			}
			frontier, err := b.DecodeParallelFrontierCtx(ctx, pool)
			if err != nil {
				t.Fatal(err)
			}
			if fullScan.Complete != frontier.Complete {
				t.Errorf("W=%d load %v: complete %v vs %v", workers, load, fullScan.Complete, frontier.Complete)
			}
			if !equalSets(fullScan.Added, frontier.Added) {
				t.Errorf("W=%d load %v: recovery sets differ (%d vs %d keys)",
					workers, load, len(fullScan.Added), len(frontier.Added))
			}
			if frontier.Complete != ok || !equalSets(frontier.Added, added) {
				t.Errorf("W=%d load %v: parallel recovered %d keys (complete %v), serial %d (complete %v)",
					workers, load, len(frontier.Added), frontier.Complete, len(added), ok)
			}
			want, seen := rounds[load]
			if !seen {
				want = [2]int{fullScan.Rounds, fullScan.Subrounds}
				rounds[load] = want
			}
			for _, res := range []*ParallelResult{fullScan, frontier} {
				if got := [2]int{res.Rounds, res.Subrounds}; got != want {
					t.Errorf("W=%d load %v: rounds/subrounds %v, want %v", workers, load, got, want)
				}
			}
		}
		pool.Close()
	}
}

// TestDecodeWorkBound is the parallel decoder's work oracle. Under
// Frontier a cell is listed once at the start and again at most once
// for each key another subtable's recovery deletes from it, so a decode
// hands out at most Cells() + (r−1)·keys candidates; under FullScan it
// hands out Cells() per round run, the final silent round included.
func TestDecodeWorkBound(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 3} {
		pool := parallel.NewPool(workers)
		for _, load := range []float64{0.5, 0.8, 0.9} {
			keys := randomKeys(int(load*9000), uint64(51+int(100*load)))
			a := New(9000, 3, 78)
			a.InsertAll(keys)
			b := a.Clone()
			frontier, err := a.DecodeParallelFrontierCtx(ctx, pool)
			if err != nil {
				t.Fatal(err)
			}
			full, err := b.DecodeParallelCtx(ctx, pool)
			if err != nil {
				t.Fatal(err)
			}
			if bound := a.Cells() + (a.r-1)*len(keys); frontier.Candidates > bound {
				t.Errorf("W=%d load %v Frontier: %d candidates, bound %d", workers, load, frontier.Candidates, bound)
			}
			if want := a.Cells() * (full.Rounds + 1); full.Candidates != want {
				t.Errorf("W=%d load %v FullScan: %d candidates, want %d", workers, load, full.Candidates, want)
			}
		}
		pool.Close()
	}
}

func TestFrontierReconciliation(t *testing.T) {
	common := randomKeys(5000, 32)
	onlyA := randomKeys(120, 33)
	onlyB := randomKeys(130, 34)
	ta := New(1024, 4, 5)
	tb := New(1024, 4, 5)
	ta.InsertAll(common)
	ta.InsertAll(onlyA)
	tb.InsertAll(common)
	tb.InsertAll(onlyB)
	ta.Subtract(tb)
	res := ta.DecodeParallelFrontier()
	if !res.Complete || !equalSets(res.Added, onlyA) || !equalSets(res.Removed, onlyB) {
		t.Fatal("frontier reconciliation failed")
	}
}

func TestFrontierQuick(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%300) + 1
		keys := randomKeys(n, seed)
		table := New(n*3+32, 4, seed^0x77)
		table.InsertAll(keys)
		res := table.DecodeParallelFrontier()
		return res.Complete && equalSets(res.Added, keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

func TestGetSemantics(t *testing.T) {
	table := New(3000, 3, 9)
	keys := randomKeys(100, 40) // sparse: most cells pure or empty
	table.InsertAll(keys)

	present, unknown := 0, 0
	for _, k := range keys {
		switch table.Get(k) {
		case Present:
			present++
		case Unknown:
			unknown++
		case Absent, Deleted:
			t.Fatalf("stored key %#x reported absent/deleted", k)
		}
	}
	if present == 0 {
		t.Error("no stored key resolved as Present at load 0.03")
	}

	foreign := randomKeys(200, 41)
	for _, k := range foreign {
		switch table.Get(k) {
		case Present, Deleted:
			t.Fatalf("foreign key %#x reported present", k)
		}
	}

	// Deleted side: delete an absent key.
	table.Delete(foreign[0])
	if got := table.Get(foreign[0]); got != Deleted {
		t.Errorf("deleted-key Get = %v, want deleted", got)
	}
}

func TestGetResultString(t *testing.T) {
	for g, want := range map[GetResult]string{
		Present: "present", Absent: "absent", Deleted: "deleted", Unknown: "unknown",
	} {
		if g.String() != want {
			t.Errorf("String(%d) = %q", g, g.String())
		}
	}
}

func TestListEntriesNonDestructive(t *testing.T) {
	keys := randomKeys(500, 42)
	table := New(2000, 3, 11)
	table.InsertAll(keys)
	added, removed, ok := table.ListEntries()
	if !ok || len(removed) != 0 || !equalSets(added, keys) {
		t.Fatal("ListEntries wrong")
	}
	// Table must be untouched: list again.
	added2, _, ok2 := table.ListEntries()
	if !ok2 || !equalSets(added2, keys) {
		t.Fatal("ListEntries destroyed the table")
	}
}

func TestNetCount(t *testing.T) {
	table := New(1000, 3, 13)
	if table.NetCount() != 0 || !table.Empty() {
		t.Fatal("fresh table not empty")
	}
	keys := randomKeys(77, 43)
	table.InsertAll(keys)
	if got := table.NetCount(); got != 77 {
		t.Errorf("NetCount = %d, want 77", got)
	}
	table.DeleteAll(keys[:30])
	if got := table.NetCount(); got != 47 {
		t.Errorf("NetCount after deletes = %d, want 47", got)
	}
	if table.Empty() {
		t.Error("non-empty table reported Empty")
	}
}

func TestWireRoundTrip(t *testing.T) {
	keys := randomKeys(800, 44)
	table := New(2048, 4, 99)
	table.InsertAll(keys)
	data, err := table.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != table.WireSize() {
		t.Errorf("wire size %d != %d", len(data), table.WireSize())
	}
	var back Table
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	added, removed, ok := back.Decode()
	if !ok || len(removed) != 0 || !equalSets(added, keys) {
		t.Fatal("unmarshaled table decodes wrong")
	}
}

func TestWireReconciliationAcrossTheWire(t *testing.T) {
	// The real protocol: A serializes, B deserializes and subtracts its
	// own table, decodes the difference.
	common := randomKeys(8000, 45)
	onlyA := randomKeys(90, 46)
	onlyB := randomKeys(80, 47)
	ta := New(1024, 3, 1234)
	ta.InsertAll(common)
	ta.InsertAll(onlyA)

	wire, err := ta.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	tb := New(1024, 3, 1234)
	tb.InsertAll(common)
	tb.InsertAll(onlyB)

	var fromA Table
	if err := fromA.UnmarshalBinary(wire); err != nil {
		t.Fatal(err)
	}
	fromA.Subtract(tb)
	added, removed, ok := fromA.Decode()
	if !ok || !equalSets(added, onlyA) || !equalSets(removed, onlyB) {
		t.Fatal("wire reconciliation failed")
	}
}

func TestWireRejectsCorruption(t *testing.T) {
	table := New(256, 3, 1)
	table.Insert(42)
	data, _ := table.MarshalBinary()

	cases := map[string][]byte{
		"short":     data[:10],
		"bad magic": append([]byte("XBLT"), data[4:]...),
		"bad ver":   append(append([]byte{}, data[:4]...), append([]byte{9, 9}, data[6:]...)...),
		"truncated": data[:len(data)-8],
	}
	for name, payload := range cases {
		var tbl Table
		if err := tbl.UnmarshalBinary(payload); !errors.Is(err, ErrBadWireFormat) {
			t.Errorf("%s: err = %v, want ErrBadWireFormat", name, err)
		}
	}
}

func TestWireDeterministic(t *testing.T) {
	a := New(512, 3, 7)
	b := New(512, 3, 7)
	for _, k := range randomKeys(100, 48) {
		a.Insert(k)
		b.Insert(k)
	}
	da, _ := a.MarshalBinary()
	db, _ := b.MarshalBinary()
	if !bytes.Equal(da, db) {
		t.Error("identical tables serialize differently")
	}
}

func BenchmarkDecodeParallelFrontier(b *testing.B) {
	keys := randomKeys(3<<12, 1)
	master := New(1<<14, 3, 1)
	master.InsertAll(keys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		table := master.Clone()
		b.StartTimer()
		if res := table.DecodeParallelFrontier(); !res.Complete {
			b.Fatal("decode failed")
		}
	}
}

// BenchmarkDecodeFrontierLarge times the Frontier decoder at the
// geometry of peelbench's decode workload: 2^17 keys at load 0.75 with
// r = 3, on pools of 1 and 2 workers.
func BenchmarkDecodeFrontierLarge(b *testing.B) {
	keys := randomKeys(1<<17, 1)
	master := New(len(keys)*4/3, 3, 1)
	master.InsertAll(keys)
	for _, workers := range []int{1, 2} {
		pool := parallel.NewPool(workers)
		b.Run(fmt.Sprintf("W=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				table := master.Clone()
				b.StartTimer()
				if res, err := table.DecodeParallelFrontierCtx(context.Background(), pool); err != nil || !res.Complete {
					b.Fatalf("decode failed: %v", err)
				}
			}
		})
		pool.Close()
	}
}

func BenchmarkMarshalBinary(b *testing.B) {
	table := New(1<<14, 3, 1)
	table.InsertAll(randomKeys(1<<12, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := table.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}
