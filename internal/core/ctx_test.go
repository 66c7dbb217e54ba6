package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/graph"
)

// bipartiteInstance builds a dense bipartite graph (n A-vertices fully
// connected to n B-vertices) and the single-edge query over it, giving n*n
// solutions spread over n candidate regions.
func bipartiteInstance(n int) (*graph.Graph, *QueryGraph) {
	fA, fB := uint32(0), uint32(1)
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddVertexLabel(uint32(i), fA)
		b.AddVertexLabel(uint32(n+i), fB)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.AddEdge(uint32(i), 0, uint32(n+j))
		}
	}
	g := b.Build()
	q := NewQueryGraph()
	u0 := q.AddVertex([]uint32{fA}, NoID)
	u1 := q.AddVertex([]uint32{fB}, NoID)
	q.AddEdge(u0, u1, 0)
	return g, q
}

func TestCancelledContextStopsCount(t *testing.T) {
	g, q := bipartiteInstance(64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Count(ctx, g, q, Homomorphism, Optimized()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	opts := Optimized()
	opts.Workers = 4
	if _, err := Count(ctx, g, q, Homomorphism, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel err = %v, want context.Canceled", err)
	}
}

func TestCancelMidStreamAbandonsRegions(t *testing.T) {
	const n = 64
	g, q := bipartiteInstance(n)
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	_, err := Stream(ctx, g, q, Homomorphism, Optimized(), func(Match) bool {
		seen++
		if seen == 1 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen >= n*n {
		t.Fatalf("visited all %d solutions despite cancellation", seen)
	}
}

func TestVisitorStopIsNotAnError(t *testing.T) {
	g, q := bipartiteInstance(16)
	seen := 0
	n, err := Stream(context.Background(), g, q, Homomorphism, Optimized(), func(Match) bool {
		seen++
		return seen < 5
	})
	if err != nil {
		t.Fatalf("err = %v, want nil for a visitor-initiated stop", err)
	}
	if n != 5 || seen != 5 {
		t.Fatalf("visited %d (returned %d), want 5", seen, n)
	}
}

// TestVisitorStopProfileCountsPartialEffort: a run its visitor stops after
// three rows reports only the effort spent before the stop.
func TestVisitorStopProfileCountsPartialEffort(t *testing.T) {
	g, q := bipartiteInstance(32)
	full, err := Profile(context.Background(), g, q, Homomorphism, Optimized())
	if err != nil {
		t.Fatal(err)
	}
	opts := Optimized()
	var part ProfileResult
	opts.Profile = &part
	seen := 0
	n, err := Stream(context.Background(), g, q, Homomorphism, opts, func(Match) bool {
		seen++
		return seen < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || seen != 3 {
		t.Fatalf("stopped run visited %d (returned %d), want 3", seen, n)
	}
	if part.Regions >= full.Regions || part.SearchNodes >= full.SearchNodes {
		t.Fatalf("early termination did not shrink effort: partial %+v vs full %+v", part, full)
	}
}
