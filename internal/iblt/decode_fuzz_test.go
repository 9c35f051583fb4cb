package iblt

import (
	"context"
	"slices"
	"testing"

	"repro/internal/parallel"
)

// forgedTable returns an empty 96-cell table but for one forged cell:
// key 42, pure in subtable 1, either at its own cell (atOwn), with its
// other two cells left without it, or at a neighbour of its own cell.
func forgedTable(atOwn bool) *Table {
	t := New(96, 3, 5)
	const x = 42
	c := t.cellIndex(x, 1)
	if !atOwn {
		c = t.subSize + (c-t.subSize+1)%t.subSize
	}
	t.count[c], t.keySum[c], t.checkSum[c] = 1, x, t.checksum(x)
	return t
}

// TestDecodeStopsOnCraftedCycle checks that a key pure in one cell and
// absent from its others, which every decoder recovers with alternating
// signs, stops all of them after Cells() recoveries, and that a key at a
// cell that is not its own is never recovered.
func TestDecodeStopsOnCraftedCycle(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	for _, atOwn := range []bool{true, false} {
		tbl := forgedTable(atOwn)
		added, removed, _ := tbl.Clone().Decode()
		for _, dec := range []func(*Table, context.Context, *parallel.Pool) (*ParallelResult, error){
			(*Table).DecodeParallelCtx, (*Table).DecodeParallelFrontierCtx,
		} {
			res, err := dec(tbl.Clone(), context.Background(), pool)
			if err != nil {
				t.Fatal(err)
			}
			added, removed = append(added, res.Added...), append(removed, res.Removed...)
			if n := len(res.Added) + len(res.Removed); res.Complete || n > tbl.Cells()+tbl.Cells()/tbl.R() {
				t.Errorf("atOwn=%v: complete=%v after %d recoveries from %d cells", atOwn, res.Complete, n, tbl.Cells())
			}
		}
		if !atOwn && (slices.Contains(added, 42) || slices.Contains(removed, 42)) {
			t.Errorf("key 42 recovered from a cell that is not its own")
		}
	}
}

// FuzzDecodeDeterministic decodes every table UnmarshalBinary accepts
// with both parallel decoders on pools of 1 and 3 workers: all four must
// agree exactly on the recovered keys, the round and subround counts
// and completeness. The serial Decode must not panic. Run with -race, it
// also checks that no crafted table makes the scan's plain writes race.
func FuzzDecodeDeterministic(f *testing.F) {
	valid := New(96, 3, 5)
	for _, k := range randomKeys(60, 9) {
		valid.Insert(k)
	}
	for _, tbl := range []*Table{valid, forgedTable(false), forgedTable(true)} {
		data, err := tbl.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	pools := []*parallel.Pool{parallel.NewPool(1), parallel.NewPool(3)}
	f.Cleanup(func() {
		for _, p := range pools {
			p.Close()
		}
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		var tbl Table
		if tbl.UnmarshalBinary(data) != nil {
			return
		}
		var want *ParallelResult
		for _, pool := range pools {
			for _, dec := range []func(*Table, context.Context, *parallel.Pool) (*ParallelResult, error){
				(*Table).DecodeParallelCtx, (*Table).DecodeParallelFrontierCtx,
			} {
				res, err := dec(tbl.Clone(), context.Background(), pool)
				if err != nil {
					t.Fatal(err)
				}
				slices.Sort(res.Added)
				slices.Sort(res.Removed)
				if want == nil {
					want = res
					continue
				}
				if !slices.Equal(res.Added, want.Added) || !slices.Equal(res.Removed, want.Removed) ||
					res.Rounds != want.Rounds || res.Subrounds != want.Subrounds || res.Complete != want.Complete {
					t.Fatalf("pool %d: %d added, %d removed, rounds %d, subrounds %d, complete %v; want %d, %d, %d, %d, %v",
						pool.Workers(), len(res.Added), len(res.Removed), res.Rounds, res.Subrounds, res.Complete,
						len(want.Added), len(want.Removed), want.Rounds, want.Subrounds, want.Complete)
				}
			}
		}
		tbl.Decode()
	})
}
