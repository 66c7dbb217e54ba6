package core

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/graph"
)

// bruteFreq computes what freqEstimate promises, straight from the View's
// per-vertex accessors instead of the precomputed statistics: the minimum
// over the exact per-label vertex counts and the distinct subject/object
// counts of every incident constant edge.
func bruteFreq(g graph.View, q *QueryGraph, adjEdges [][]int, u int) int {
	qv := &q.Vertices[u]
	if qv.ID != NoID {
		return 1
	}
	est := g.NumVertices()
	for _, l := range qv.Labels {
		n := 0
		for v := 0; v < g.NumVertices(); v++ {
			if g.HasLabel(uint32(v), l) {
				n++
			}
		}
		if n < est {
			est = n
		}
	}
	for _, ei := range adjEdges[u] {
		e := q.Edges[ei]
		if e.Wildcard() {
			continue
		}
		n := 0
		for v := 0; v < g.NumVertices(); v++ {
			if e.From == u && g.CountEdgeLabel(uint32(v), graph.Out, e.Label) > 0 {
				n++
			}
			if e.To == u && e.From != u && g.CountEdgeLabel(uint32(v), graph.In, e.Label) > 0 {
				n++
			}
		}
		if n < est {
			est = n
		}
	}
	return est
}

// TestFreqEstimateExact pins freqEstimate against a brute-force count over
// random graph/query pairs: the statistics-backed estimate must equal the
// exact minimum it claims to be, and must stay an upper bound on the number
// of vertices satisfying the estimated conditions simultaneously (the
// superset of the refined candidate list that startCandidates relies on).
func TestFreqEstimateExact(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		g := randomData(r, 20+r.Intn(20), 4, 3, 60+r.Intn(60))
		q := randomQuery(r, 2+r.Intn(4), 4, 3, g.NumVertices())
		if err := q.Validate(); err != nil {
			continue
		}
		m := newMatcher(context.Background(), g, q, Homomorphism, Optimized())
		for u := range q.Vertices {
			want := bruteFreq(g, q, m.adjEdges, u)
			got := m.freqEstimate(u)
			if got != want {
				t.Fatalf("trial %d vertex %d: freqEstimate = %d, brute force = %d",
					trial, u, got, want)
			}
			// Upper-bound property: count vertices meeting every estimated
			// condition at once; the min over the individual counts can only
			// be larger.
			meet := 0
			qv := &q.Vertices[u]
			for v := 0; v < g.NumVertices(); v++ {
				if qv.ID != NoID && uint32(v) != qv.ID {
					continue
				}
				if !g.HasAllLabels(uint32(v), qv.Labels) {
					continue
				}
				ok := true
				for _, ei := range m.adjEdges[u] {
					e := q.Edges[ei]
					if e.Wildcard() {
						continue
					}
					if e.From == u && g.CountEdgeLabel(uint32(v), graph.Out, e.Label) == 0 {
						ok = false
						break
					}
					if e.To == u && e.From != u && g.CountEdgeLabel(uint32(v), graph.In, e.Label) == 0 {
						ok = false
						break
					}
				}
				if ok {
					meet++
				}
			}
			if got < meet {
				t.Fatalf("trial %d vertex %d: freqEstimate %d below satisfying count %d",
					trial, u, got, meet)
			}
		}
	}
}

// sortedKeys collects a run's solutions as sorted row keys — the multiset
// representation for permutation-equality checks.
func sortedKeys(t *testing.T, g graph.View, q *QueryGraph, sem Semantics, opts Opts) []string {
	t.Helper()
	rows, err := Collect(context.Background(), g, q, sem, opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(rows))
	for i, mt := range rows {
		keys[i] = matchKey(mt)
	}
	sort.Strings(keys)
	return keys
}

// TestSignatureFilterEquivalence: the 64-bit neighborhood signature is a
// necessary condition, so it must never drop a solution — with the filter
// in force, row multisets equal the brute-force oracle's (which checks
// labels and edges only) across random instances and both semantics. The
// crafted instance then proves the filter actually kills: half the mid
// vertices lack the leaf edge the query requires, and every one of them
// must be rejected by the signature alone.
func TestSignatureFilterEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		g := randomData(r, 20+r.Intn(20), 4, 3, 60+r.Intn(60))
		q := randomQuery(r, 2+r.Intn(4), 4, 3, g.NumVertices())
		if err := q.Validate(); err != nil {
			continue
		}
		for _, sem := range []Semantics{Homomorphism, Isomorphism} {
			got := sortedKeys(t, g, q, sem, Optimized())
			if d := sameKeys(got, bruteForceKeys(g, q, sem)); d != "" {
				t.Fatalf("trial %d %v: %s", trial, sem, d)
			}
		}
	}

	// Kill-rate instance: hub --7--> 40 mids, only 20 of which have the
	// --8--> leaf the query demands. With NLF off (Optimized), the signature
	// is the only neighborhood filter, so each childless mid is killed by it.
	fHub, fMid, fLeaf := uint32(0), uint32(1), uint32(2)
	b := graph.NewBuilder()
	b.AddVertexLabel(0, fHub)
	next := uint32(1)
	for i := 0; i < 40; i++ {
		mv := next
		next++
		b.AddVertexLabel(mv, fMid)
		b.AddEdge(0, 7, mv)
		if i%2 == 0 {
			lv := next
			next++
			b.AddVertexLabel(lv, fLeaf)
			b.AddEdge(mv, 8, lv)
		}
	}
	g := b.Build()
	q := NewQueryGraph()
	qr := q.AddVertex([]uint32{fHub}, NoID)
	qx := q.AddVertex([]uint32{fMid}, NoID)
	qy := q.AddVertex([]uint32{fLeaf}, NoID)
	q.AddEdge(qr, qx, 7)
	q.AddEdge(qx, qy, 8)
	pr, err := Profile(context.Background(), g, q, Homomorphism, Optimized())
	if err != nil {
		t.Fatal(err)
	}
	if pr.Solutions != 20 {
		t.Fatalf("crafted instance: %d solutions, want 20", pr.Solutions)
	}
	if pr.SignatureChecked == 0 {
		t.Fatalf("signature filter never consulted")
	}
	if pr.SignatureKilled < 20 {
		t.Fatalf("signature killed %d candidates, want >= 20 (the childless mids)", pr.SignatureKilled)
	}
}
