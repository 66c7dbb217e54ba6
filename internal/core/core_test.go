package core

import (
	"context"
	"testing"

	"repro/internal/graph"
)

// Labels and edge labels used by the paper-figure fixtures.
const (
	lA = uint32(0)
	lB = uint32(1)
	lC = uint32(2)
	lD = uint32(3)
	lE = uint32(4)

	ea = uint32(0)
	eb = uint32(1)
	ec = uint32(2)
)

// fig1Data builds the data graph g1 of paper Figure 1 (reconstructed from
// the published solution set):
//
//	v0{B} -a-> v1{A}    v0 -b-> v4{C}
//	v2{B} -a-> v1       v2 -a-> v3{A,D}   v2 -b-> v5{C,E}
//	v3 -c-> v4          v3 -c-> v5
func fig1Data() *graph.Graph {
	b := graph.NewBuilder()
	b.AddVertexLabel(0, lB)
	b.AddVertexLabel(1, lA)
	b.AddVertexLabel(2, lB)
	b.AddVertexLabel(3, lA)
	b.AddVertexLabel(3, lD)
	b.AddVertexLabel(4, lC)
	b.AddVertexLabel(5, lC)
	b.AddVertexLabel(5, lE)
	b.AddEdge(0, ea, 1)
	b.AddEdge(0, eb, 4)
	b.AddEdge(2, ea, 1)
	b.AddEdge(2, ea, 3)
	b.AddEdge(2, eb, 5)
	b.AddEdge(3, ec, 4)
	b.AddEdge(3, ec, 5)
	return b.Build()
}

// fig1Query builds the query q1 of Figure 1: u0 blank, u1{A}, u2{B}, u3{A},
// u4{C}; edges u0-a->u1, u0-b->u4, u2-a->u1, u2-a->u3, and a blank-label
// edge u3->u4.
func fig1Query() *QueryGraph {
	q := NewQueryGraph()
	u0 := q.AddVertex(nil, NoID)
	u1 := q.AddVertex([]uint32{lA}, NoID)
	u2 := q.AddVertex([]uint32{lB}, NoID)
	u3 := q.AddVertex([]uint32{lA}, NoID)
	u4 := q.AddVertex([]uint32{lC}, NoID)
	q.AddEdge(u0, u1, ea)
	q.AddEdge(u0, u4, eb)
	q.AddEdge(u2, u1, ea)
	q.AddEdge(u2, u3, ea)
	q.AddVarEdge(u3, u4, -1)
	return q
}

// allOptCombos enumerates every combination of the four optimizations,
// each with the NEC reduction on and off.
func allOptCombos() []Opts {
	var out []Opts
	for mask := 0; mask < 32; mask++ {
		out = append(out, Opts{
			Intersect:  mask&1 != 0,
			NoNLF:      mask&2 != 0,
			NoDegree:   mask&4 != 0,
			ReuseOrder: mask&8 != 0,
			NoNEC:      mask&16 != 0,
		})
	}
	return out
}

// TestPaperFig1Homomorphism checks the paper's Figure 1 claim: three
// e-graph homomorphisms, each binding the blank edge (u3,u4) to label c.
func TestPaperFig1Homomorphism(t *testing.T) {
	g := fig1Data()
	q := fig1Query()
	for _, opts := range allOptCombos() {
		sols, err := Collect(context.Background(), g, q, Homomorphism, opts)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if len(sols) != 3 {
			t.Fatalf("opts %+v: %d homomorphisms, want 3: %v", opts, len(sols), sols)
		}
		want := map[[5]uint32]bool{
			{0, 1, 2, 3, 4}: true, // M1
			{2, 3, 2, 3, 5}: true, // M2
			{2, 1, 2, 3, 5}: true, // M3
		}
		for _, s := range sols {
			var key [5]uint32
			copy(key[:], s.Vertices)
			if !want[key] {
				t.Errorf("opts %+v: unexpected solution %v", opts, s.Vertices)
			}
			delete(want, key)
			// The blank edge (index 4) must bind to c; constant edges carry
			// their constants.
			if s.EdgeLabels[4] != ec {
				t.Errorf("opts %+v: Me(u3,u4) = %d, want c", opts, s.EdgeLabels[4])
			}
			if s.EdgeLabels[0] != ea || s.EdgeLabels[1] != eb {
				t.Errorf("opts %+v: constant edge bindings wrong: %v", opts, s.EdgeLabels)
			}
		}
		if len(want) != 0 {
			t.Errorf("opts %+v: missing solutions: %v", opts, want)
		}
	}
}

// TestPaperFig1Isomorphism checks that injectivity leaves only M1.
func TestPaperFig1Isomorphism(t *testing.T) {
	g := fig1Data()
	q := fig1Query()
	for _, opts := range allOptCombos() {
		sols, err := Collect(context.Background(), g, q, Isomorphism, opts)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if len(sols) != 1 {
			t.Fatalf("opts %+v: %d isomorphisms, want 1: %v", opts, len(sols), sols)
		}
		want := []uint32{0, 1, 2, 3, 4}
		for i, v := range want {
			if sols[0].Vertices[i] != v {
				t.Fatalf("opts %+v: solution %v, want %v", opts, sols[0].Vertices, want)
			}
		}
	}
}

// TestPaperFig2MatchingOrder builds the matching-order-problem instance of
// Figure 2 (a clique query over a skewed star) and checks the engine
// terminates with zero results quickly under every configuration.
func TestPaperFig2MatchingOrder(t *testing.T) {
	const (
		numX = 10
		numY = 1000
		numZ = 5
	)
	lX, lY, lZ, lAA := uint32(0), uint32(1), uint32(2), uint32(3)
	b := graph.NewBuilder()
	v0 := uint32(0)
	b.AddVertexLabel(v0, lAA)
	next := uint32(1)
	var xs, ys, zs []uint32
	for i := 0; i < numX; i++ {
		b.AddVertexLabel(next, lX)
		xs = append(xs, next)
		next++
	}
	for i := 0; i < numY; i++ {
		b.AddVertexLabel(next, lY)
		ys = append(ys, next)
		next++
	}
	for i := 0; i < numZ; i++ {
		b.AddVertexLabel(next, lZ)
		zs = append(zs, next)
		next++
	}
	for _, x := range xs {
		b.AddEdge(v0, 0, x)
	}
	for _, y := range ys {
		b.AddEdge(v0, 0, y)
	}
	for _, z := range zs {
		b.AddEdge(v0, 0, z)
	}
	// X-Y and X-Z edges exist, Y-Z edges do not: the clique query has no
	// answer, and a bad matching order pays 10000*10*5 comparisons.
	for i, x := range xs {
		for j, y := range ys {
			if (i+j)%2 == 0 {
				b.AddEdge(x, 0, y)
			}
		}
		for _, z := range zs {
			b.AddEdge(x, 0, z)
		}
	}
	g := b.Build()

	q := NewQueryGraph()
	u0 := q.AddVertex([]uint32{lAA}, NoID)
	u1 := q.AddVertex([]uint32{lX}, NoID)
	u2 := q.AddVertex([]uint32{lY}, NoID)
	u3 := q.AddVertex([]uint32{lZ}, NoID)
	q.AddEdge(u0, u1, 0)
	q.AddEdge(u0, u2, 0)
	q.AddEdge(u0, u3, 0)
	q.AddEdge(u1, u2, 0)
	q.AddEdge(u1, u3, 0)
	q.AddEdge(u2, u3, 0)

	for _, sem := range []Semantics{Homomorphism, Isomorphism} {
		for _, opts := range []Opts{Baseline(), Optimized()} {
			n, err := Count(context.Background(), g, q, sem, opts)
			if err != nil {
				t.Fatal(err)
			}
			if n != 0 {
				t.Errorf("sem %v opts %+v: count = %d, want 0", sem, opts, n)
			}
		}
	}
}

func TestSingleVertexQuery(t *testing.T) {
	g := fig1Data()
	q := NewQueryGraph()
	q.AddVertex([]uint32{lA}, NoID)
	n, err := Count(context.Background(), g, q, Homomorphism, Optimized())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 { // v1 and v3
		t.Errorf("count = %d, want 2", n)
	}
	// Pinned single vertex.
	q2 := NewQueryGraph()
	q2.AddVertex([]uint32{lA}, 3)
	if n, _ := Count(context.Background(), g, q2, Homomorphism, Optimized()); n != 1 {
		t.Errorf("pinned count = %d, want 1", n)
	}
	// Pin with mismatched label.
	q3 := NewQueryGraph()
	q3.AddVertex([]uint32{lC}, 3)
	if n, _ := Count(context.Background(), g, q3, Homomorphism, Optimized()); n != 0 {
		t.Errorf("mismatched pin count = %d, want 0", n)
	}
}

func TestPinnedVertexQuery(t *testing.T) {
	g := fig1Data()
	// u0 pinned to v2, u0 -a-> u1 {A}: expect v1 and v3.
	q := NewQueryGraph()
	u0 := q.AddVertex(nil, 2)
	u1 := q.AddVertex([]uint32{lA}, NoID)
	q.AddEdge(u0, u1, ea)
	sols, err := Collect(context.Background(), g, q, Homomorphism, Optimized())
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint32]bool{}
	for _, s := range sols {
		if s.Vertices[0] != 2 {
			t.Errorf("pinned vertex mapped to %d", s.Vertices[0])
		}
		got[s.Vertices[1]] = true
	}
	if len(sols) != 2 || !got[1] || !got[3] {
		t.Errorf("solutions = %v, want u1 in {v1, v3}", sols)
	}
}

func TestSelfLoop(t *testing.T) {
	b := graph.NewBuilder()
	b.AddVertexLabel(0, lA)
	b.AddVertexLabel(1, lA)
	b.AddEdge(0, ea, 0) // self loop on v0
	b.AddEdge(0, ea, 1)
	g := b.Build()

	q := NewQueryGraph()
	u0 := q.AddVertex([]uint32{lA}, NoID)
	q.AddEdge(u0, u0, ea)
	n, err := Count(context.Background(), g, q, Homomorphism, Optimized())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("self-loop count = %d, want 1 (v0 only)", n)
	}
	// Wildcard self loop.
	q2 := NewQueryGraph()
	u := q2.AddVertex(nil, NoID)
	q2.AddVarEdge(u, u, -1)
	if n, _ := Count(context.Background(), g, q2, Homomorphism, Optimized()); n != 1 {
		t.Errorf("wildcard self-loop count = %d, want 1", n)
	}
}

func TestPredVarConsistency(t *testing.T) {
	// v0 -a-> v1, v0 -b-> v1, v1 -a-> v2, v1 -b-> v2.
	b := graph.NewBuilder()
	b.AddEdge(0, ea, 1)
	b.AddEdge(0, eb, 1)
	b.AddEdge(1, ea, 2)
	b.AddEdge(1, eb, 2)
	g := b.Build()

	// ?x -?p-> ?y -?p-> ?z with a SHARED predicate variable: only label-
	// consistent pairs qualify: (a,a) and (b,b) through v0->v1->v2.
	q := NewQueryGraph()
	x := q.AddVertex(nil, NoID)
	y := q.AddVertex(nil, NoID)
	z := q.AddVertex(nil, NoID)
	q.AddVarEdge(x, y, 0)
	q.AddVarEdge(y, z, 0)
	n, err := Count(context.Background(), g, q, Homomorphism, Optimized())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("shared predvar count = %d, want 2", n)
	}

	// Distinct variables: 2x2 = 4 combinations.
	q2 := NewQueryGraph()
	x = q2.AddVertex(nil, NoID)
	y = q2.AddVertex(nil, NoID)
	z = q2.AddVertex(nil, NoID)
	q2.AddVarEdge(x, y, 0)
	q2.AddVarEdge(y, z, 1)
	if n, _ := Count(context.Background(), g, q2, Homomorphism, Optimized()); n != 4 {
		t.Errorf("distinct predvar count = %d, want 4", n)
	}
}

func TestMultiEdgeWildcardBindings(t *testing.T) {
	// Two parallel edges with different labels: a wildcard query edge must
	// yield two solutions differing only in Me (paper Def. 2).
	b := graph.NewBuilder()
	b.AddEdge(0, ea, 1)
	b.AddEdge(0, eb, 1)
	g := b.Build()
	q := NewQueryGraph()
	x := q.AddVertex(nil, NoID)
	y := q.AddVertex(nil, NoID)
	q.AddVarEdge(x, y, -1)
	sols, err := Collect(context.Background(), g, q, Homomorphism, Optimized())
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 2 {
		t.Fatalf("wildcard multi-edge solutions = %d, want 2", len(sols))
	}
	gotLabels := map[uint32]bool{}
	for _, s := range sols {
		gotLabels[s.EdgeLabels[0]] = true
	}
	if !gotLabels[ea] || !gotLabels[eb] {
		t.Errorf("bindings = %v, want {a, b}", gotLabels)
	}
}

func TestStreamStop(t *testing.T) {
	g := fig1Data()
	q := fig1Query()
	calls := 0
	n, err := Stream(context.Background(), g, q, Homomorphism, Optimized(), func(Match) bool {
		calls++
		return false // stop immediately
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || n != 1 {
		t.Errorf("stream stop: calls=%d n=%d, want 1/1", calls, n)
	}
}

func TestValidationErrors(t *testing.T) {
	g := fig1Data()
	// Empty query.
	if _, err := Count(context.Background(), g, NewQueryGraph(), Homomorphism, Optimized()); err == nil {
		t.Error("empty query accepted")
	}
	// Disconnected query.
	q := NewQueryGraph()
	q.AddVertex([]uint32{lA}, NoID)
	q.AddVertex([]uint32{lB}, NoID)
	if _, err := Count(context.Background(), g, q, Homomorphism, Optimized()); err == nil {
		t.Error("disconnected query accepted")
	}
	// Out-of-range edge endpoints.
	q2 := NewQueryGraph()
	q2.AddVertex(nil, NoID)
	q2.Edges = append(q2.Edges, QueryEdge{From: 0, To: 5, Label: 0, PredVar: -1})
	if _, err := Count(context.Background(), g, q2, Homomorphism, Optimized()); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	g := fig1Data()
	q := fig1Query()
	seq, err := Collect(context.Background(), g, q, Homomorphism, Optimized())
	if err != nil {
		t.Fatal(err)
	}
	opts := Optimized()
	opts.Workers = 4
	par, err := Collect(context.Background(), g, q, Homomorphism, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(seq) {
		t.Fatalf("parallel = %d solutions, sequential = %d", len(par), len(seq))
	}
	// A full parallel Collect gathers solutions per chunk and merges them in
	// chunk order, so it must reproduce the sequential enumeration exactly —
	// not merely as a set.
	key := func(m Match) string {
		s := ""
		for _, v := range m.Vertices {
			s += string(rune('0' + v))
		}
		return s
	}
	for i := range seq {
		if key(par[i]) != key(seq[i]) {
			t.Fatalf("solution order differs at %d: parallel %v vs sequential %v",
				i, par[i].Vertices, seq[i].Vertices)
		}
	}

	// Same check at a scale where workers actually race over many chunks.
	gb, qb := bipartiteInstance(64)
	seqB, err := Collect(context.Background(), gb, qb, Homomorphism, Optimized())
	if err != nil {
		t.Fatal(err)
	}
	parB, err := Collect(context.Background(), gb, qb, Homomorphism, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(parB) != len(seqB) {
		t.Fatalf("bipartite: parallel %d, sequential %d", len(parB), len(seqB))
	}
	for i := range seqB {
		if parB[i].Vertices[0] != seqB[i].Vertices[0] || parB[i].Vertices[1] != seqB[i].Vertices[1] {
			t.Fatalf("bipartite order differs at %d: %v vs %v", i, parB[i].Vertices, seqB[i].Vertices)
		}
	}
}

func TestEmptyDataGraph(t *testing.T) {
	g := graph.NewBuilder().Build()
	q := fig1Query()
	n, err := Count(context.Background(), g, q, Homomorphism, Optimized())
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("count on empty graph = %d", n)
	}
}

func TestOptimizedAndBaselineAgreeOnFig1(t *testing.T) {
	g := fig1Data()
	q := fig1Query()
	for _, sem := range []Semantics{Homomorphism, Isomorphism} {
		a, _ := Count(context.Background(), g, q, sem, Baseline())
		b, _ := Count(context.Background(), g, q, sem, Optimized())
		if a != b {
			t.Errorf("sem %v: baseline %d != optimized %d", sem, a, b)
		}
	}
}

// TestPointQueryFastPath checks Algorithm 1 lines 1-4: a single-vertex
// query reports exactly the filtered candidates, in both execution modes.
func TestPointQueryFastPath(t *testing.T) {
	g := fig1Data()
	q := NewQueryGraph()
	q.AddVertex([]uint32{lB}, NoID)
	for _, workers := range []int{1, 4} {
		opts := Optimized()
		opts.Workers = workers
		n, err := Count(context.Background(), g, q, Homomorphism, opts)
		if err != nil {
			t.Fatal(err)
		}
		if n != 2 { // v0 and v2 carry B
			t.Fatalf("workers=%d: count = %d, want 2", workers, n)
		}
		sols, err := Collect(context.Background(), g, q, Homomorphism, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(sols) != 2 {
			t.Fatalf("workers=%d: collected %d, want 2", workers, len(sols))
		}
	}
}

// TestStartVertexPrefersPinnedEntity is the regression test for the
// start-vertex refinement guards: with a pinned constant and a huge class
// vertex in one query, the matcher must root exploration at the constant —
// observable through the pinned vertex winning ties against the class
// vertex whose estimate exceeds one.
func TestStartVertexPrefersPinnedEntity(t *testing.T) {
	// Data: hub vertex h (pinned in the query) points to 3 of 1000
	// L-labeled vertices.
	b := graph.NewBuilder()
	const hub = 1000
	for v := uint32(0); v < hub; v++ {
		b.AddVertexLabel(v, lA)
	}
	b.EnsureVertex(hub)
	b.AddEdge(hub, ea, 5)
	b.AddEdge(hub, ea, 6)
	b.AddEdge(hub, ea, 7)
	g := b.Build()

	q := NewQueryGraph()
	x := q.AddVertex([]uint32{lA}, NoID)
	h := q.AddVertex(nil, hub)
	q.AddEdge(h, x, ea)

	m := newMatcher(context.Background(), g, q, Homomorphism, Optimized())
	start, cands := m.startCandidates()
	if start != h {
		t.Fatalf("start vertex = %d, want pinned %d", start, h)
	}
	if len(cands) != 1 || cands[0] != hub {
		t.Fatalf("candidates = %v, want [hub]", cands)
	}

	n, err := Count(context.Background(), g, q, Homomorphism, Optimized())
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("count = %d, want 3", n)
	}
}
