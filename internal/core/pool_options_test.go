package core

import (
	"fmt"
	"testing"

	"repro/internal/parallel"
)

// TestParallelWorkersOption checks that explicit pools of several sizes
// (Options.Pool) produce exactly the result of the default-pool run and
// the sequential peeler: same rounds, same survivor history, same core —
// on both scan policies.
func TestParallelWorkersOption(t *testing.T) {
	g := uniformGraph(30000, 21000, 4, 30)
	seq := Sequential(g, 2)
	for _, scan := range []ScanPolicy{Frontier, FullScan} {
		base := Parallel(g, 2, Options{Scan: scan})
		for _, workers := range []int{1, 3} {
			name := fmt.Sprintf("pool%d", workers)
			pool := parallel.NewPool(workers)
			got := Parallel(g, 2, Options{Scan: scan, Pool: pool})
			pool.Close()
			if got.Rounds != base.Rounds {
				t.Errorf("scan %v %s: rounds %d != %d", scan, name, got.Rounds, base.Rounds)
			}
			if len(got.SurvivorHistory) != len(base.SurvivorHistory) {
				t.Fatalf("scan %v %s: history length %d != %d",
					scan, name, len(got.SurvivorHistory), len(base.SurvivorHistory))
			}
			for i := range got.SurvivorHistory {
				if got.SurvivorHistory[i] != base.SurvivorHistory[i] {
					t.Errorf("scan %v %s: round %d survivors %d != %d",
						scan, name, i+1, got.SurvivorHistory[i], base.SurvivorHistory[i])
				}
			}
			if got.CoreVertices != seq.CoreVertices || got.CoreEdges != seq.CoreEdges {
				t.Errorf("scan %v %s: core (%d,%d) != sequential (%d,%d)",
					scan, name, got.CoreVertices, got.CoreEdges, seq.CoreVertices, seq.CoreEdges)
			}
			for v := 0; v < g.N; v++ {
				if got.VertexAlive[v] != seq.VertexAlive[v] {
					t.Fatalf("scan %v %s: vertex %d alive mismatch", scan, name, v)
				}
			}
		}
	}
}

// TestSubtablesWorkersOption checks the same for the subtable peeler: a
// resized pool must not change subrounds or history.
func TestSubtablesWorkersOption(t *testing.T) {
	g := partitionedGraph(20000, 14000, 4, 31)
	base := Subtables(g, 2, Options{})
	pool := parallel.NewPool(3)
	defer pool.Close()
	got := Subtables(g, 2, Options{Pool: pool})
	if got.Subrounds != base.Subrounds || got.Rounds != base.Rounds {
		t.Errorf("subrounds/rounds (%d,%d) != (%d,%d)",
			got.Subrounds, got.Rounds, base.Subrounds, base.Rounds)
	}
	for i := range base.SurvivorHistory {
		if got.SurvivorHistory[i] != base.SurvivorHistory[i] {
			t.Errorf("subround %d: survivors %d != %d",
				i+1, got.SurvivorHistory[i], base.SurvivorHistory[i])
		}
	}
}
