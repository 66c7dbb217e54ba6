package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
)

// bruteForceKeys enumerates solutions by exhaustive assignment — the oracle
// of the differential suites, sharing no code with the matcher. It tries
// every assignment of query vertices to data vertices, keeps those that
// satisfy Def. 1 literally (ID pins, label containment, pushed-down
// predicates, injectivity under isomorphism, every constant edge present),
// and expands each into every binding of the wildcard edges to labels of
// data edges between their endpoints (Def. 2's Me), edges that share a
// predicate variable binding the same label. An edge is checked as soon as
// both endpoints are assigned, which only prunes assignments the final
// check would reject. It returns the sorted multiset of matchKey rows; its
// length is the solution count.
func bruteForceKeys(g *graph.Graph, q *QueryGraph, sem Semantics) []string {
	n := len(q.Vertices)
	assign := make([]uint32, n)
	labels := make([]uint32, len(q.Edges))
	var keys []string

	// closes[i] lists the edges whose later endpoint is query vertex i.
	closes := make([][]QueryEdge, n)
	for _, e := range q.Edges {
		last := max(e.From, e.To)
		closes[last] = append(closes[last], e)
	}

	var bind func(ei int)
	bind = func(ei int) {
		if ei == len(q.Edges) {
			for i, a := range q.Edges {
				for j, b := range q.Edges[:i] {
					if a.PredVar >= 0 && a.PredVar == b.PredVar && labels[i] != labels[j] {
						return
					}
				}
			}
			keys = append(keys, matchKey(Match{Vertices: assign, EdgeLabels: labels}))
			return
		}
		e := q.Edges[ei]
		if !e.Wildcard() {
			labels[ei] = e.Label
			bind(ei + 1)
			return
		}
		for _, l := range g.EdgeLabelsBetween(nil, assign[e.From], assign[e.To]) {
			labels[ei] = l
			bind(ei + 1)
		}
	}

	var place func(i int)
	place = func(i int) {
		if i == n {
			bind(0)
			return
		}
		qv := &q.Vertices[i]
	next:
		for v := uint32(0); int(v) < g.NumVertices(); v++ {
			if qv.ID != NoID && qv.ID != v || !g.HasAllLabels(v, qv.Labels) || qv.Pred != nil && !qv.Pred(v) {
				continue
			}
			if sem == Isomorphism && slices.Contains(assign[:i], v) {
				continue
			}
			assign[i] = v
			for _, e := range closes[i] {
				from, to := assign[e.From], assign[e.To]
				if e.Wildcard() && len(g.EdgeLabelsBetween(nil, from, to)) == 0 ||
					!e.Wildcard() && !g.HasEdge(from, to, e.Label) {
					continue next
				}
			}
			place(i + 1)
		}
	}
	place(0)
	sort.Strings(keys)
	return keys
}

// sameKeys reports the first difference between two key lists, or "".
func sameKeys(got, want []string) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("row %d: %s, want %s", i, got[i], want[i])
		}
	}
	return ""
}

// randomData builds a random labeled graph.
func randomData(r *rand.Rand, nV, nL, nEL, nE int) *graph.Graph {
	b := graph.NewBuilder()
	b.EnsureVertex(uint32(nV - 1))
	for v := 0; v < nV; v++ {
		for l := 0; l < nL; l++ {
			if r.Intn(3) == 0 {
				b.AddVertexLabel(uint32(v), uint32(l))
			}
		}
	}
	for i := 0; i < nE; i++ {
		b.AddEdge(uint32(r.Intn(nV)), uint32(r.Intn(nEL)), uint32(r.Intn(nV)))
	}
	return b.Build()
}

// randomQuery builds a random connected query over the data's label spaces.
func randomQuery(r *rand.Rand, nV, nL, nEL, dataV int) *QueryGraph {
	q := NewQueryGraph()
	for i := 0; i < nV; i++ {
		var labels []uint32
		for l := 0; l < nL; l++ {
			if r.Intn(4) == 0 {
				labels = append(labels, uint32(l))
			}
		}
		id := NoID
		if r.Intn(8) == 0 {
			id = uint32(r.Intn(dataV))
		}
		q.AddVertex(labels, id)
	}
	addEdge := func(from, to int) {
		switch r.Intn(5) {
		case 0:
			q.AddVarEdge(from, to, -1) // anonymous wildcard
		case 1:
			q.AddVarEdge(from, to, r.Intn(2)) // shared-able predicate var
		default:
			q.AddEdge(from, to, uint32(r.Intn(nEL)))
		}
	}
	// Random spanning tree keeps the query connected.
	for i := 1; i < nV; i++ {
		p := r.Intn(i)
		if r.Intn(2) == 0 {
			addEdge(p, i)
		} else {
			addEdge(i, p)
		}
	}
	extra := r.Intn(3)
	for i := 0; i < extra; i++ {
		a, b := r.Intn(nV), r.Intn(nV)
		addEdge(a, b)
	}
	return q
}

// TestDifferentialRandom cross-checks the engine against brute force on
// random graph/query pairs for both semantics and every optimization combo:
// Collect's rows as a multiset, and Count.
func TestDifferentialRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	combos := allOptCombos()
	for trial := 0; trial < 120; trial++ {
		dataV := 4 + r.Intn(8)
		g := randomData(r, dataV, 3, 3, dataV*2+r.Intn(10))
		qV := 2 + r.Intn(3)
		q := randomQuery(r, qV, 3, 3, dataV)
		for _, sem := range []Semantics{Homomorphism, Isomorphism} {
			want := bruteForceKeys(g, q, sem)
			// Rotate through opt combos to bound runtime while covering all;
			// also check the fully optimized path every trial, with the NEC
			// reduction both on (the default) and off.
			noNEC := Optimized()
			noNEC.NoNEC = true
			for _, opts := range []Opts{combos[trial%len(combos)], Optimized(), noNEC} {
				sols, err := Collect(context.Background(), g, q, sem, opts)
				if err != nil {
					t.Fatalf("trial %d sem %v: %v", trial, sem, err)
				}
				if d := sameKeys(matchKeys(sols), want); d != "" {
					t.Fatalf("trial %d sem %v opts %+v: Collect vs brute force: %s\nquery: %+v", trial, sem, opts, d, q)
				}
				got, err := Count(context.Background(), g, q, sem, opts)
				if err != nil {
					t.Fatalf("trial %d sem %v: %v", trial, sem, err)
				}
				if got != len(want) {
					t.Fatalf("trial %d sem %v opts %+v: Count %d, brute force %d\nquery: %+v",
						trial, sem, opts, got, len(want), q)
				}
			}
		}
	}
}

// randomStarQuery builds a hub with nLeaves leaves drawn from a tiny pool of
// leaf templates, so equivalent leaves (and hence NEC classes) occur on most
// trials — the shape TestDifferentialRandom's spanning trees rarely hit.
func randomStarQuery(r *rand.Rand, nLeaves, nL, nEL, dataV int) *QueryGraph {
	q := NewQueryGraph()
	var hubLabels []uint32
	if r.Intn(2) == 0 {
		hubLabels = []uint32{uint32(r.Intn(nL))}
	}
	hub := q.AddVertex(hubLabels, NoID)
	type tmpl struct {
		labels []uint32
		el     uint32
		out    bool
		back   bool
	}
	tmpls := make([]tmpl, 2)
	for i := range tmpls {
		var labels []uint32
		for l := 0; l < nL; l++ {
			if r.Intn(3) == 0 {
				labels = append(labels, uint32(l))
			}
		}
		tmpls[i] = tmpl{labels, uint32(r.Intn(nEL)), r.Intn(2) == 0, r.Intn(4) == 0}
	}
	for i := 0; i < nLeaves; i++ {
		tm := tmpls[r.Intn(len(tmpls))]
		leaf := q.AddVertex(tm.labels, NoID)
		if tm.out {
			q.AddEdge(hub, leaf, tm.el)
		} else {
			q.AddEdge(leaf, hub, tm.el)
		}
		if tm.back {
			q.AddEdge(leaf, hub, uint32((int(tm.el)+1)%nEL))
		}
	}
	return q
}

// TestDifferentialNEC cross-checks the NEC reduction on star-heavy random
// queries: counts and full solution sets, with the reduction on and off,
// against brute force under both semantics.
func TestDifferentialNEC(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	reduced := 0
	for trial := 0; trial < 80; trial++ {
		dataV := 5 + r.Intn(8)
		g := randomData(r, dataV, 3, 3, dataV*2+r.Intn(12))
		q := randomStarQuery(r, 2+r.Intn(3), 3, 3, dataV)
		if reduceNEC(q) != nil {
			reduced++
		}
		for _, sem := range []Semantics{Homomorphism, Isomorphism} {
			want := bruteForceKeys(g, q, sem)
			off := Optimized()
			off.NoNEC = true
			for _, opts := range []Opts{Optimized(), off} {
				got, err := Count(context.Background(), g, q, sem, opts)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if got != len(want) {
					t.Fatalf("trial %d sem %v NoNEC=%v: Count %d, brute force %d\nquery: %+v",
						trial, sem, opts.NoNEC, got, len(want), q)
				}
				sols, err := Collect(context.Background(), g, q, sem, opts)
				if err != nil {
					t.Fatal(err)
				}
				if d := sameKeys(matchKeys(sols), want); d != "" {
					t.Fatalf("trial %d sem %v NoNEC=%v: Collect vs brute force: %s\nquery: %+v",
						trial, sem, opts.NoNEC, d, q)
				}
			}
		}
	}
	// The generator exists to exercise the reduction; make sure it does.
	if reduced < 20 {
		t.Fatalf("only %d/80 star trials produced an NEC reduction", reduced)
	}
}

// TestDifferentialParallel cross-checks the parallel pipeline against brute
// force: under both semantics and at Workers 2 and 4, Collect must return
// exactly the brute-force row multiset and Count its size.
func TestDifferentialParallel(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		dataV := 8 + r.Intn(10)
		g := randomData(r, dataV, 3, 3, dataV*3)
		q := randomQuery(r, 2+r.Intn(3), 3, 3, dataV)
		for _, sem := range []Semantics{Homomorphism, Isomorphism} {
			want := bruteForceKeys(g, q, sem)
			for _, workers := range []int{2, 4} {
				opts := Optimized()
				opts.Workers = workers
				got, err := Count(context.Background(), g, q, sem, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got != len(want) {
					t.Fatalf("trial %d %v workers=%d: parallel Count %d, brute force %d\nquery: %+v",
						trial, sem, workers, got, len(want), q)
				}
				sols, err := Collect(context.Background(), g, q, sem, opts)
				if err != nil {
					t.Fatal(err)
				}
				if d := sameKeys(matchKeys(sols), want); d != "" {
					t.Fatalf("trial %d %v workers=%d: parallel Collect vs brute force: %s\nquery: %+v",
						trial, sem, workers, d, q)
				}
			}
		}
	}
}

// TestDifferentialDenseLabels stresses multi-label vertices (the
// intersection paths in candidate generation).
func TestDifferentialDenseLabels(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 40; trial++ {
		dataV := 6 + r.Intn(6)
		b := graph.NewBuilder()
		b.EnsureVertex(uint32(dataV - 1))
		for v := 0; v < dataV; v++ {
			for l := 0; l < 4; l++ {
				if r.Intn(2) == 0 {
					b.AddVertexLabel(uint32(v), uint32(l))
				}
			}
		}
		for i := 0; i < dataV*3; i++ {
			b.AddEdge(uint32(r.Intn(dataV)), uint32(r.Intn(2)), uint32(r.Intn(dataV)))
		}
		g := b.Build()

		q := NewQueryGraph()
		nQ := 2 + r.Intn(2)
		for i := 0; i < nQ; i++ {
			var labels []uint32
			for l := 0; l < 4; l++ {
				if r.Intn(3) == 0 {
					labels = append(labels, uint32(l))
				}
			}
			q.AddVertex(labels, NoID)
		}
		for i := 1; i < nQ; i++ {
			q.AddEdge(r.Intn(i), i, uint32(r.Intn(2)))
		}
		want := len(bruteForceKeys(g, q, Homomorphism))
		got, err := Count(context.Background(), g, q, Homomorphism, Optimized())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: engine %d, brute force %d", trial, got, want)
		}
	}
}
