package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/graph"
)

// singleRegionInstance builds one hub with a unique label, so the whole
// match set lives in ONE candidate region (one start candidate, one batch):
// the pipeline runs it on one worker however many it is given. hub --7--> a
// (mids of them) --8--> b (leaves per mid), queried by the chain
// r -> x -> y.
func singleRegionInstance(mids, leaves int) (*graph.Graph, *QueryGraph) {
	fHub, fMid, fLeaf := uint32(0), uint32(1), uint32(2)
	b := graph.NewBuilder()
	b.AddVertexLabel(0, fHub)
	next := uint32(1)
	for i := 0; i < mids; i++ {
		mv := next
		next++
		b.AddVertexLabel(mv, fMid)
		b.AddEdge(0, 7, mv)
		for j := 0; j < leaves; j++ {
			lv := next
			next++
			b.AddVertexLabel(lv, fLeaf)
			b.AddEdge(mv, 8, lv)
		}
	}
	q := NewQueryGraph()
	r := q.AddVertex([]uint32{fHub}, NoID)
	x := q.AddVertex([]uint32{fMid}, NoID)
	y := q.AddVertex([]uint32{fLeaf}, NoID)
	q.AddEdge(r, x, 7)
	q.AddEdge(x, y, 8)
	return b.Build(), q
}

// TestRegionSplitDifferential: on a single-region instance, parallel
// Stream/Collect must deliver the byte-identical sequential row sequence for
// every worker count, and Count must agree, including under MaxSolutions
// caps at the first row and mid-region.
func TestRegionSplitDifferential(t *testing.T) {
	g, q := singleRegionInstance(96, 40)
	for _, sem := range []Semantics{Homomorphism, Isomorphism} {
		seq := Optimized()
		seq.Workers = 1
		want := streamKeys(t, g, q, sem, seq)
		wantN, err := Count(context.Background(), g, q, sem, seq)
		if err != nil {
			t.Fatal(err)
		}
		if wantN != len(want) {
			t.Fatalf("%v: sequential Count %d != %d rows", sem, wantN, len(want))
		}
		for _, workers := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%v/workers=%d", sem, workers), func(t *testing.T) {
				par := Optimized()
				par.Workers = workers
				par.StreamBuffer = 8
				got := streamKeys(t, g, q, sem, par)
				if len(got) != len(want) {
					t.Fatalf("%d rows, want %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("row %d:\n got %s\nwant %s", i, got[i], want[i])
					}
				}
				gotN, err := Count(context.Background(), g, q, sem, par)
				if err != nil {
					t.Fatal(err)
				}
				if gotN != wantN {
					t.Fatalf("Count = %d, want %d", gotN, wantN)
				}
				for _, limit := range []int{1, 57} {
					lim := par
					lim.MaxSolutions = limit
					rows, err := Collect(context.Background(), g, q, sem, lim)
					if err != nil {
						t.Fatal(err)
					}
					if len(rows) != limit {
						t.Fatalf("limit=%d: Collect %d rows", limit, len(rows))
					}
					for i, mt := range rows {
						if matchKey(mt) != want[i] {
							t.Fatalf("limit=%d row %d differs from sequential prefix", limit, i)
						}
					}
					n, err := Count(context.Background(), g, q, sem, lim)
					if err != nil {
						t.Fatal(err)
					}
					if n != limit {
						t.Fatalf("limit=%d: Count = %d", limit, n)
					}
				}
			})
		}
	}
}
