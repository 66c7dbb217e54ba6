package core

import (
	"context"
	"sort"
	"testing"

	"repro/internal/graph"
)

// starData builds hubs labeled lA, each pointing at its own set of lB
// leaves over edge label ea. fanouts[i] is hub i's leaf count.
func starData(fanouts []int) *graph.Graph {
	b := graph.NewBuilder()
	next := uint32(len(fanouts))
	for h, f := range fanouts {
		b.AddVertexLabel(uint32(h), lA)
		for i := 0; i < f; i++ {
			b.AddVertexLabel(next, lB)
			b.AddEdge(uint32(h), ea, next)
			next++
		}
	}
	return b.Build()
}

// starQuery builds a hub with k equivalent leaf children — the NEC shape.
func starQuery(k int) *QueryGraph {
	q := NewQueryGraph()
	hub := q.AddVertex([]uint32{lA}, NoID)
	for i := 0; i < k; i++ {
		leaf := q.AddVertex([]uint32{lB}, NoID)
		q.AddEdge(hub, leaf, ea)
	}
	return q
}

func TestNECReduceStar(t *testing.T) {
	q := starQuery(3)
	red := reduceNEC(q)
	if red == nil {
		t.Fatal("star query not reduced")
	}
	if len(red.classes) != 1 {
		t.Fatalf("classes = %d, want 1", len(red.classes))
	}
	if got := red.classes[0].members; len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("members = %v, want [1 2 3]", got)
	}
	if len(red.reduced.Vertices) != 2 || len(red.reduced.Edges) != 1 {
		t.Fatalf("reduced = %d vertices / %d edges, want 2/1",
			len(red.reduced.Vertices), len(red.reduced.Edges))
	}
	if red.mergedVertices() != 2 {
		t.Fatalf("merged = %d, want 2", red.mergedVertices())
	}
	// All three leaves map to the representative.
	rep := red.vertexMap[1]
	if red.vertexMap[2] != rep || red.vertexMap[3] != rep {
		t.Fatalf("vertexMap = %v, members should share the rep", red.vertexMap)
	}
	if red.classSize[rep] != 3 || red.classOf[rep] < 0 {
		t.Fatalf("rep classSize = %d classOf = %d", red.classSize[rep], red.classOf[rep])
	}
	// Dropped member edges carry their constant label.
	if red.edgeMap[1] != -1 || red.edgeMap[2] != -1 {
		t.Fatalf("edgeMap = %v, member edges should be dropped", red.edgeMap)
	}
}

// TestNECReduceExclusions pins down every condition that must block a merge.
func TestNECReduceExclusions(t *testing.T) {
	// Direction matters: hub->x vs y->hub are not equivalent.
	q := NewQueryGraph()
	hub := q.AddVertex([]uint32{lA}, NoID)
	x := q.AddVertex([]uint32{lB}, NoID)
	y := q.AddVertex([]uint32{lB}, NoID)
	q.AddEdge(hub, x, ea)
	q.AddEdge(y, hub, ea)
	if reduceNEC(q) != nil {
		t.Error("merged leaves with opposite edge directions")
	}

	// Different edge labels.
	q = NewQueryGraph()
	hub = q.AddVertex([]uint32{lA}, NoID)
	x = q.AddVertex([]uint32{lB}, NoID)
	y = q.AddVertex([]uint32{lB}, NoID)
	q.AddEdge(hub, x, ea)
	q.AddEdge(hub, y, eb)
	if reduceNEC(q) != nil {
		t.Error("merged leaves with different edge labels")
	}

	// Different label sets.
	q = NewQueryGraph()
	hub = q.AddVertex([]uint32{lA}, NoID)
	x = q.AddVertex([]uint32{lB}, NoID)
	y = q.AddVertex([]uint32{lC}, NoID)
	q.AddEdge(hub, x, ea)
	q.AddEdge(hub, y, ea)
	if reduceNEC(q) != nil {
		t.Error("merged leaves with different labels")
	}

	// A pinned member never merges.
	q = starQuery(2)
	q.Vertices[1].ID = 7
	if reduceNEC(q) != nil {
		t.Error("merged a pinned vertex")
	}

	// A pushed-down predicate never merges (closures are incomparable).
	q = starQuery(2)
	q.Vertices[2].Pred = func(uint32) bool { return true }
	if reduceNEC(q) != nil {
		t.Error("merged a vertex with a predicate")
	}

	// Wildcard edges bind their own labels; members must stay separate.
	q = NewQueryGraph()
	hub = q.AddVertex([]uint32{lA}, NoID)
	x = q.AddVertex([]uint32{lB}, NoID)
	y = q.AddVertex([]uint32{lB}, NoID)
	q.AddVarEdge(hub, x, -1)
	q.AddVarEdge(hub, y, -1)
	if reduceNEC(q) != nil {
		t.Error("merged wildcard-edge leaves")
	}

	// Label-set order must not matter.
	q = NewQueryGraph()
	hub = q.AddVertex([]uint32{lA}, NoID)
	x = q.AddVertex([]uint32{lB, lC}, NoID)
	y = q.AddVertex([]uint32{lC, lB}, NoID)
	q.AddEdge(hub, x, ea)
	q.AddEdge(hub, y, ea)
	if red := reduceNEC(q); red == nil || len(red.classes) != 1 {
		t.Error("label-set order blocked a merge")
	}
}

// TestNECStarCounts checks the expansion against brute force on stars with
// skewed fanouts, under both semantics and every worker count.
func TestNECStarCounts(t *testing.T) {
	g := starData([]int{4, 2, 0, 1, 5})
	for k := 2; k <= 4; k++ {
		q := starQuery(k)
		for _, sem := range []Semantics{Homomorphism, Isomorphism} {
			want := len(bruteForceKeys(g, q, sem))
			for _, workers := range []int{1, 4} {
				for _, base := range []Opts{Baseline(), Optimized()} {
					opts := base
					opts.Workers = workers
					got, err := Count(context.Background(), g, q, sem, opts)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("k=%d sem=%v workers=%d opts=%+v: NEC %d, brute force %d",
							k, sem, workers, opts, got, want)
					}
					opts.NoNEC = true
					off, err := Count(context.Background(), g, q, sem, opts)
					if err != nil {
						t.Fatal(err)
					}
					if off != want {
						t.Fatalf("k=%d sem=%v NEC off: %d, want %d", k, sem, off, want)
					}
				}
			}
		}
	}
}

// matchKeys returns the sorted multiset of the solutions' row keys.
func matchKeys(sols []Match) []string {
	keys := make([]string, 0, len(sols))
	for _, s := range sols {
		keys = append(keys, matchKey(s))
	}
	sort.Strings(keys)
	return keys
}

// TestNECCollectSolutionSets verifies the expanded matches themselves — full
// vertex mappings and edge bindings — are identical with NEC on and off.
func TestNECCollectSolutionSets(t *testing.T) {
	g := starData([]int{3, 2, 4})
	q := starQuery(3)
	for _, sem := range []Semantics{Homomorphism, Isomorphism} {
		on, err := Collect(context.Background(), g, q, sem, Optimized())
		if err != nil {
			t.Fatal(err)
		}
		off := Optimized()
		off.NoNEC = true
		want, err := Collect(context.Background(), g, q, sem, off)
		if err != nil {
			t.Fatal(err)
		}
		a, b := matchKeys(on), matchKeys(want)
		if len(a) != len(b) {
			t.Fatalf("sem %v: NEC on %d solutions, off %d", sem, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("sem %v: solution sets differ at %d: %q vs %q", sem, i, a[i], b[i])
			}
		}
	}
}

// TestNECProfileCounters is the star acceptance test: the reduction must
// report its classes and a non-zero expansions-skipped count, and must visit
// far fewer search nodes than the unreduced run.
func TestNECProfileCounters(t *testing.T) {
	g := starData([]int{8, 8, 8, 8})
	q := starQuery(3)

	on, err := Profile(context.Background(), g, q, Homomorphism, Optimized())
	if err != nil {
		t.Fatal(err)
	}
	if on.NECClasses != 1 || on.NECMergedVertices != 2 {
		t.Fatalf("NEC counters = %+v, want 1 class / 2 merged", on)
	}
	if on.NECExpansionsSkipped == 0 {
		t.Fatalf("expansions skipped = 0: %+v", on)
	}

	offOpts := Optimized()
	offOpts.NoNEC = true
	off, err := Profile(context.Background(), g, q, Homomorphism, offOpts)
	if err != nil {
		t.Fatal(err)
	}
	if off.NECClasses != 0 || off.NECExpansionsSkipped != 0 {
		t.Fatalf("NEC-off run reported reduction work: %+v", off)
	}
	if on.Solutions != off.Solutions {
		t.Fatalf("solutions differ: NEC on %d, off %d", on.Solutions, off.Solutions)
	}
	// 4 hubs x 8^3 homomorphic expansions: the reduced search must be far
	// cheaper than per-permutation enumeration.
	if on.SearchNodes*10 >= off.SearchNodes {
		t.Fatalf("search nodes: NEC on %d, off %d — no reduction win", on.SearchNodes, off.SearchNodes)
	}
}

// TestNECStreamStop ensures a visitor returning false stops mid-expansion.
func TestNECStreamStop(t *testing.T) {
	g := starData([]int{6, 6})
	q := starQuery(3)
	calls := 0
	n, err := Stream(context.Background(), g, q, Homomorphism, Optimized(), func(Match) bool {
		calls++
		return calls < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || n != 3 {
		t.Fatalf("stream stop: calls=%d n=%d, want 3/3", calls, n)
	}
}

// TestNECIsoLaterVertexCollision covers the injectivity interaction between
// deferred members and query vertices matched after the class position: a
// chain hub->leafs plus a tail vertex that competes for the same data
// vertices.
func TestNECIsoLaterVertexCollision(t *testing.T) {
	// Data: hub -> {x1, x2, x3} via ea, and hub -> x1 via eb (the tail).
	b := graph.NewBuilder()
	b.AddVertexLabel(0, lA)
	for v := uint32(1); v <= 3; v++ {
		b.AddVertexLabel(v, lB)
		b.AddEdge(0, ea, v)
	}
	b.AddEdge(0, eb, 1)
	b.AddEdge(0, eb, 2)
	g := b.Build()

	// Query: hub with two equivalent ea-leaves and one eb-tail, all lB.
	q := NewQueryGraph()
	hub := q.AddVertex([]uint32{lA}, NoID)
	l1 := q.AddVertex([]uint32{lB}, NoID)
	l2 := q.AddVertex([]uint32{lB}, NoID)
	tail := q.AddVertex([]uint32{lB}, NoID)
	q.AddEdge(hub, l1, ea)
	q.AddEdge(hub, l2, ea)
	q.AddEdge(hub, tail, eb)

	if red := reduceNEC(q); red == nil || len(red.classes) != 1 {
		t.Fatal("ea-leaves should merge")
	}
	for _, sem := range []Semantics{Homomorphism, Isomorphism} {
		want := len(bruteForceKeys(g, q, sem))
		got, err := Count(context.Background(), g, q, sem, Optimized())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("sem %v: NEC %d, brute force %d", sem, got, want)
		}
	}
}

// TestNECMultiClass exercises two classes on one hub (distinct predicates)
// under both semantics, where isomorphism must keep the classes' expansions
// mutually injective.
func TestNECMultiClass(t *testing.T) {
	b := graph.NewBuilder()
	b.AddVertexLabel(0, lA)
	for v := uint32(1); v <= 4; v++ {
		b.AddVertexLabel(v, lB)
		b.AddEdge(0, ea, v)
		b.AddEdge(0, eb, v) // same targets reachable over both labels
	}
	g := b.Build()

	q := NewQueryGraph()
	hub := q.AddVertex([]uint32{lA}, NoID)
	for i := 0; i < 2; i++ {
		leaf := q.AddVertex([]uint32{lB}, NoID)
		q.AddEdge(hub, leaf, ea)
	}
	for i := 0; i < 2; i++ {
		leaf := q.AddVertex([]uint32{lB}, NoID)
		q.AddEdge(hub, leaf, eb)
	}
	red := reduceNEC(q)
	if red == nil || len(red.classes) != 2 {
		t.Fatalf("want 2 classes, got %+v", red)
	}
	for _, sem := range []Semantics{Homomorphism, Isomorphism} {
		want := len(bruteForceKeys(g, q, sem))
		got, err := Count(context.Background(), g, q, sem, Optimized())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("sem %v: NEC %d, brute force %d", sem, got, want)
		}
	}
}

// TestNECParallelEdgesToHub merges members that have two parallel edges to
// the hub (one becomes the tree edge, the other a non-tree join at the
// representative's position).
func TestNECParallelEdgesToHub(t *testing.T) {
	b := graph.NewBuilder()
	b.AddVertexLabel(0, lA)
	for v := uint32(1); v <= 3; v++ {
		b.AddVertexLabel(v, lB)
		b.AddEdge(0, ea, v)
		if v != 2 {
			b.AddEdge(v, eb, 0) // back edge missing for v2
		}
	}
	g := b.Build()

	q := NewQueryGraph()
	hub := q.AddVertex([]uint32{lA}, NoID)
	for i := 0; i < 2; i++ {
		leaf := q.AddVertex([]uint32{lB}, NoID)
		q.AddEdge(hub, leaf, ea)
		q.AddEdge(leaf, hub, eb)
	}
	red := reduceNEC(q)
	if red == nil || len(red.classes) != 1 {
		t.Fatalf("parallel-edge leaves should merge: %+v", red)
	}
	for _, sem := range []Semantics{Homomorphism, Isomorphism} {
		want := len(bruteForceKeys(g, q, sem))
		for _, opts := range []Opts{Baseline(), Optimized()} {
			got, err := Count(context.Background(), g, q, sem, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("sem %v opts %+v: NEC %d, brute force %d", sem, opts, got, want)
			}
		}
	}
}
