package core

import (
	"context"
	"sort"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/intset"
)

// Match is one solution: the vertex mapping Mv and, for every query edge,
// the bound data edge label (Me). For constant-label edges the binding is
// the constant itself. The slices are reused between callbacks — copy them
// if they must outlive the call.
type Match struct {
	Vertices   []uint32
	EdgeLabels []uint32
}

// Clone deep-copies the match.
func (m Match) Clone() Match {
	return Match{
		Vertices:   append([]uint32(nil), m.Vertices...),
		EdgeLabels: append([]uint32(nil), m.EdgeLabels...),
	}
}

// Visitor receives each solution; returning false stops the search.
type Visitor func(Match) bool

// Stream enumerates all matches of q in g, invoking visit for each in the
// deterministic sequential region order. It returns the number of solutions
// visited. A run whose start vertex has fewer than two candidates (or whose
// query is point-shaped), or one with opts.Workers <= 1, drives one Cursor to
// exhaustion on the calling goroutine and lends each row to visit. Otherwise
// the candidate regions are searched by the ordered parallel region pipeline
// through resumable cursors, whose reorder stage delivers rows in exactly the
// order a sequential run would produce (opts.StreamBuffer bounds the
// not-yet-delivered rows in flight — per-row backpressure that suspends
// workers mid-region); the visitor always runs on the calling goroutine.
// Cancelling ctx abandons the candidate regions not yet emitted and returns
// ctx.Err(). A visitor returning false is the one other way a run stops
// early: cleanly, with a nil error, and on the pipeline abandoning the work
// beyond the row window.
func Stream(ctx context.Context, g graph.View, q *QueryGraph, sem Semantics, opts Opts, visit Visitor) (int, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	return newMatcher(ctx, g, q, sem, opts).execute(visit, false)
}

// Collect enumerates all matches and returns them as deep copies, always in
// the sequential enumeration order: it runs where Stream would — one Cursor,
// or the ordered pipeline for two or more candidate regions at Workers > 1 —
// so a parallel Collect returns exactly the rows and order of a sequential
// one. Cancelling ctx abandons the remaining work and returns ctx.Err()
// along with the rows emitted before the cancellation took effect.
func Collect(ctx context.Context, g graph.View, q *QueryGraph, sem Semantics, opts Opts) ([]Match, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	var out []Match
	_, err := newMatcher(ctx, g, q, sem, opts).execute(func(mt Match) bool {
		out = append(out, mt)
		return true
	}, true)
	return out, err
}

// Count returns the number of matches without materializing them. It runs
// where Stream would; on the pipeline, per-batch totals are summed into the
// total a sequential count returns. Counting runs with no visitor, which
// lets the NEC reduction total equivalence-class expansions combinatorially
// instead of enumerating them.
// Cancelling ctx abandons the remaining work and returns ctx.Err().
func Count(ctx context.Context, g graph.View, q *QueryGraph, sem Semantics, opts Opts) (int, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	return newMatcher(ctx, g, q, sem, opts).execute(nil, false)
}

// execute is the one place a run chooses between sequential and parallel
// search, from the start vertex's candidate list. Fewer than two candidates,
// or a point-shaped query, leave no regions to distribute (paper §5.2), so
// one Cursor runs them on the calling goroutine whatever opts.Workers says;
// two or more with Workers > 1 start the ordered pipeline. The Cursor lends
// its rows; owned asks for rows visit may keep, which the sequential branch
// clones and the pipeline's workers have already copied.
func (m *matcher) execute(visit Visitor, owned bool) (int, error) {
	start, cands := m.startCandidates()
	if len(cands) >= 2 && m.opts.Workers > 1 && !m.pointShaped() {
		return m.runPipeline(start, cands, visit)
	}
	if owned {
		keep := visit
		visit = func(mt Match) bool { return keep(mt.Clone()) }
	}
	n, _, err := m.cursorFrom(start, cands, visit).Resume(0)
	return n, err
}

// nlfReq is one neighborhood-label-frequency requirement of a query vertex:
// the data vertex must have at least count neighbors in direction dir over
// edge label el (NoID = any) carrying label vl (NoID = any).
type nlfReq struct {
	dir   graph.Dir
	el    uint32
	vl    uint32
	count int
}

// matcher holds the query-global immutable state of one match run.
type matcher struct {
	ctx  context.Context
	g    graph.View
	q    *QueryGraph // the graph being searched (NEC-reduced when red != nil)
	sem  Semantics
	opts Opts

	// red is the NEC reduction in effect, or nil. When non-nil, q is the
	// reduced graph; candidate regions, matching orders, and the search all
	// operate on it, and solutions are expanded back into the original
	// query's vertex space at emit time.
	red *necReduction

	adjEdges [][]int // per query vertex: incident edge indices

	// Query tree (built once per run from the chosen start vertex).
	start      int
	parent     []int   // tree parent per query vertex (-1 for start)
	parentEdge []int   // edge index connecting parent -> vertex (-1 for start)
	children   [][]int // tree children per query vertex
	bfsOrder   []int
	nonTree    []int // non-tree edge indices

	nlf     [][]nlfReq // per query vertex
	degOut  []int      // per query vertex: required out-degree (iso) or #out types (hom)
	degIn   []int
	qOutDeg []int // true query out/in degree per vertex (iso filter)
	qInDeg  []int

	// sigMask holds, per query vertex, the required neighborhood-signature
	// bits: the OR of graph.SignatureBit over every fully concrete
	// (direction, edge label, neighbor label) requirement. A data vertex
	// whose signature is missing any required bit cannot match.
	sigMask []uint64

	// Signature-filter profile counters. They live on the matcher as atomics
	// (not on per-worker profiles) because passFilters runs on every worker
	// against the shared matcher; they are folded into opts.Profile once at
	// the end of a run, and only counted when profiling is on.
	sigChecked atomic.Int64
	sigKilled  atomic.Int64

	// onPlan, when non-nil, observes each freshly built matching order with
	// its region — the Explain capture hook. Cursor runs only.
	onPlan func(*region, *searchPlan)
}

func newMatcher(ctx context.Context, g graph.View, q *QueryGraph, sem Semantics, opts Opts) *matcher {
	if ctx == nil {
		ctx = context.Background()
	}
	m := &matcher{ctx: ctx, g: g, q: q, sem: sem, opts: opts}
	if !opts.NoNEC {
		if red := reduceNEC(q); red != nil {
			m.red = red
			m.q = red.reduced
		}
	}
	m.adjEdges = m.q.adjacentEdges()
	m.buildFilters()
	return m
}

// pointShaped reports whether the (reduced) query is a single vertex with no
// edges, which needs no region machinery: every filtered start candidate is
// a solution.
func (m *matcher) pointShaped() bool {
	return len(m.q.Vertices) == 1 && len(m.q.Edges) == 0
}

// buildFilters precomputes the NLF requirements and degree thresholds.
//
// Under an NEC reduction the thresholds are computed from the ORIGINAL query
// graph and projected onto the reduced vertices: a class neighbor (hub) keeps
// the full strength of its k member edges (under isomorphism it must have k
// distinct neighbors of the member type, not one), and a representative's
// constraints equal any member's, since members are indistinguishable.
func (m *matcher) buildFilters() {
	src, srcAdj := m.q, m.adjEdges
	if m.red != nil {
		src = m.red.orig
		srcAdj = src.adjacentEdges()
	}
	n := len(src.Vertices)
	nlf := make([][]nlfReq, n)
	sig := make([]uint64, n)
	degOut := make([]int, n)
	degIn := make([]int, n)
	qOutDeg := make([]int, n)
	qInDeg := make([]int, n)

	type reqKey struct {
		dir graph.Dir
		el  uint32
		vl  uint32
	}
	for u := 0; u < n; u++ {
		counts := make(map[reqKey]int)
		for _, ei := range srcAdj[u] {
			e := src.Edges[ei]
			endpoints := [][2]int{}
			if e.From == u {
				endpoints = append(endpoints, [2]int{int(graph.Out), e.To})
			}
			if e.To == u {
				endpoints = append(endpoints, [2]int{int(graph.In), e.From})
			}
			for _, ep := range endpoints {
				dir, nb := graph.Dir(ep[0]), ep[1]
				nbLabels := src.Vertices[nb].Labels
				if len(nbLabels) == 0 {
					counts[reqKey{dir, e.Label, NoID}]++
					continue
				}
				for _, l := range nbLabels {
					counts[reqKey{dir, e.Label, l}]++
				}
			}
		}
		for k, c := range counts {
			if m.sem == Homomorphism {
				// Weakened filter: at least one neighbor per distinct type
				// (paper §2.2, "Modifying TurboISO for e-Graph
				// Homomorphism").
				c = 1
			}
			nlf[u] = append(nlf[u], nlfReq{k.dir, k.el, k.vl, c})
		}
		sort.Slice(nlf[u], func(i, j int) bool { // determinism
			a, b := nlf[u][i], nlf[u][j]
			if a.dir != b.dir {
				return a.dir < b.dir
			}
			if a.el != b.el {
				return a.el < b.el
			}
			return a.vl < b.vl
		})
		// Signature mask: only fully concrete requirements map to bits —
		// exactly the triples the data-side signatures are built from.
		for _, r := range nlf[u] {
			if r.el != NoID && r.vl != NoID {
				sig[u] |= graph.SignatureBit(r.dir, r.el, r.vl)
			}
		}

		// Degree thresholds.
		outTypes := map[reqKey]bool{}
		inTypes := map[reqKey]bool{}
		for _, ei := range srcAdj[u] {
			e := src.Edges[ei]
			if e.From == u {
				qOutDeg[u]++
				outTypes[reqKey{graph.Out, e.Label, 0}] = true
			}
			if e.To == u {
				qInDeg[u]++
				inTypes[reqKey{graph.In, e.Label, 0}] = true
			}
		}
		if m.sem == Isomorphism {
			degOut[u] = qOutDeg[u]
			degIn[u] = qInDeg[u]
		} else {
			// Weakened: at least as many neighbors as distinct neighbor
			// types in each direction.
			degOut[u] = len(outTypes)
			degIn[u] = len(inTypes)
		}
	}

	if m.red == nil {
		m.nlf, m.degOut, m.degIn, m.qOutDeg, m.qInDeg = nlf, degOut, degIn, qOutDeg, qInDeg
		m.sigMask = sig
		return
	}
	rn := len(m.q.Vertices)
	m.nlf = make([][]nlfReq, rn)
	m.sigMask = make([]uint64, rn)
	m.degOut = make([]int, rn)
	m.degIn = make([]int, rn)
	m.qOutDeg = make([]int, rn)
	m.qInDeg = make([]int, rn)
	for rv := 0; rv < rn; rv++ {
		ov := m.red.repOrig[rv]
		m.nlf[rv] = nlf[ov]
		m.sigMask[rv] = sig[ov]
		m.degOut[rv] = degOut[ov]
		m.degIn[rv] = degIn[ov]
		m.qOutDeg[rv] = qOutDeg[ov]
		m.qInDeg[rv] = qInDeg[ov]
	}
}

// passFilters applies the static candidate tests for query vertex u against
// data vertex v: ID pin, label subset, pushed-down predicate, degree filter,
// NLF filter.
func (m *matcher) passFilters(u int, v uint32) bool {
	qv := &m.q.Vertices[u]
	if qv.ID != NoID && qv.ID != v {
		return false
	}
	if mask := m.sigMask[u]; mask != 0 {
		if m.opts.Profile != nil {
			m.sigChecked.Add(1)
		}
		if m.g.Signature(v)&mask != mask {
			if m.opts.Profile != nil {
				m.sigKilled.Add(1)
			}
			return false
		}
	}
	if !m.g.HasAllLabels(v, qv.Labels) {
		return false
	}
	if qv.Pred != nil && !qv.Pred(v) {
		return false
	}
	if !m.opts.NoDegree {
		if m.g.Degree(v, graph.Out) < m.degOut[u] || m.g.Degree(v, graph.In) < m.degIn[u] {
			return false
		}
	}
	if !m.opts.NoNLF && !m.nlfFilter(u, v) {
		return false
	}
	return true
}

func (m *matcher) nlfFilter(u int, v uint32) bool {
	for _, r := range m.nlf[u] {
		var have int
		switch {
		case r.el != NoID && r.vl != NoID:
			have = m.g.GroupSize(v, r.dir, r.el, r.vl)
		case r.el != NoID:
			have = m.g.CountEdgeLabel(v, r.dir, r.el)
		case r.vl != NoID:
			have = m.g.CountVertexLabel(v, r.dir, r.vl)
		default:
			have = m.g.Degree(v, r.dir)
		}
		if have < r.count {
			return false
		}
	}
	return true
}

// freqEstimate bounds the number of start candidates for u from above — the
// rough rank used by ChooseStartQueryVertex before top-k refinement, read
// straight from the precomputed graph statistics. The minimum runs over the
// exact per-label vertex counts AND the distinct subject/object counts of
// every incident constant edge, so a labeled vertex with a rare predicate
// now ranks by the predicate, which the label-only estimate used to miss.
// The result must stay an upper bound on the refined candidate list:
// startCandidates skips refining a vertex whose estimate already exceeds
// the best list.
func (m *matcher) freqEstimate(u int) int {
	qv := &m.q.Vertices[u]
	if qv.ID != NoID {
		return 1
	}
	st := m.g.Stats()
	est := st.Vertices
	for _, l := range qv.Labels {
		if n := st.LabelCount(l); n < est {
			est = n
		}
	}
	// Predicate index over incident constant edges (paper §4.2,
	// ChooseStartQueryVertex): a candidate for u must appear as subject
	// (resp. object) of every constant outgoing (resp. incoming) edge.
	for _, ei := range m.adjEdges[u] {
		e := m.q.Edges[ei]
		if e.Wildcard() {
			continue
		}
		var n int
		if e.From == u {
			n = st.SubjectCount(e.Label)
		} else {
			n = st.ObjectCount(e.Label)
		}
		if n < est {
			est = n
		}
	}
	return est
}

// startVertexTopK is how many top-ranked query vertices startCandidates
// refines when choosing the start vertex.
const startVertexTopK = 3

// startCandidates picks the starting query vertex (lowest refined candidate
// count among the top-k rank-scored vertices) and returns it with its full
// filtered candidate list.
//
// Refinement is guarded twice to keep the choice O(best list), not O(data):
// a ranked vertex whose rough frequency estimate — an upper bound on its
// refined list — already exceeds the best refined list is skipped without
// materialization, and ties on list length are broken by the candidates'
// total data degree, a proxy for the region exploration the start vertex
// will trigger (this is what makes a pinned constant beat a pinned class
// vertex under the direct transformation).
func (m *matcher) startCandidates() (int, []uint32) {
	n := len(m.q.Vertices)
	type scored struct {
		u     int
		est   int
		score float64
	}
	ranked := make([]scored, 0, n)
	for u := 0; u < n; u++ {
		// A deferred NEC representative is never bound by the search, so it
		// cannot root the exploration. Its class neighbor is always
		// unmerged (a vertex with two or more class members as neighbors
		// fails the single-neighbor signature), so candidates remain.
		if m.red != nil && m.red.classOf[u] >= 0 {
			continue
		}
		deg := len(m.adjEdges[u])
		if deg == 0 {
			deg = 1
		}
		est := m.freqEstimate(u)
		ranked = append(ranked, scored{u, est, float64(est) / float64(deg)})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score < ranked[j].score
		}
		return ranked[i].u < ranked[j].u
	})
	k := min(startVertexTopK, len(ranked))

	best := -1
	var bestList []uint32
	bestDeg := 0
	for i := 0; i < k; i++ {
		if best != -1 && ranked[i].est > len(bestList) {
			continue // cannot beat the current best list
		}
		u := ranked[i].u
		list := m.materializeCandidates(u)
		deg := m.totalDegree(list)
		if best == -1 || len(list) < len(bestList) ||
			(len(list) == len(bestList) && deg < bestDeg) {
			best, bestList, bestDeg = u, list, deg
		}
		if len(bestList) == 0 {
			break // no candidates at all: empty result, stop refining
		}
	}
	return best, bestList
}

// totalDegree sums the data degrees of the candidates — the tie-break
// metric of startCandidates. The scan is capped: ties only matter between
// small lists (typically pinned vertices), and a capped sample keeps the
// start-vertex choice from costing O(data) on large label classes.
func (m *matcher) totalDegree(list []uint32) int {
	const sampleCap = 64
	if len(list) > sampleCap {
		list = list[:sampleCap]
	}
	d := 0
	for _, v := range list {
		d += m.g.Degree(v, graph.Out) + m.g.Degree(v, graph.In)
	}
	return d
}

// materializeCandidates builds the filtered candidate list for query vertex
// u from the best available index.
func (m *matcher) materializeCandidates(u int) []uint32 {
	qv := &m.q.Vertices[u]
	var base []uint32
	switch {
	case qv.ID != NoID:
		if int(qv.ID) < m.g.NumVertices() && m.passFilters(u, qv.ID) {
			return []uint32{qv.ID}
		}
		return nil
	case len(qv.Labels) > 0:
		sets := make([][]uint32, len(qv.Labels))
		for i, l := range qv.Labels {
			sets[i] = m.g.VerticesWithLabel(l)
		}
		base = intset.IntersectK(nil, sets...)
	default:
		// Predicate index: smallest subject/object list among incident
		// constant-label edges.
		for _, ei := range m.adjEdges[u] {
			e := m.q.Edges[ei]
			if e.Wildcard() {
				continue
			}
			var list []uint32
			if e.From == u {
				list = m.g.SubjectsOf(e.Label)
			} else {
				list = m.g.ObjectsOf(e.Label)
			}
			if base == nil || len(list) < len(base) {
				base = list
			}
		}
		if base == nil {
			// Fully unconstrained vertex: every data vertex qualifies.
			base = make([]uint32, m.g.NumVertices())
			for i := range base {
				base[i] = uint32(i)
			}
		}
	}
	out := make([]uint32, 0, len(base))
	for _, v := range base {
		if m.passFilters(u, v) {
			out = append(out, v)
		}
	}
	return out
}

// buildQueryTree runs the BFS of WriteQueryTree from the chosen start
// vertex, recording tree parents, tree edges, and non-tree edges.
func (m *matcher) buildQueryTree(start int) {
	n := len(m.q.Vertices)
	m.start = start
	m.parent = make([]int, n)
	m.parentEdge = make([]int, n)
	m.children = make([][]int, n)
	m.bfsOrder = m.bfsOrder[:0]
	m.nonTree = m.nonTree[:0]
	for i := range m.parent {
		m.parent[i] = -1
		m.parentEdge[i] = -1
	}
	visited := make([]bool, n)
	treeEdge := make([]bool, len(m.q.Edges))
	visited[start] = true
	queue := []int{start}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		m.bfsOrder = append(m.bfsOrder, u)
		for _, ei := range m.adjEdges[u] {
			e := m.q.Edges[ei]
			w := e.To
			if w == u {
				w = e.From
			}
			if w == u || visited[w] {
				continue
			}
			visited[w] = true
			treeEdge[ei] = true
			m.parent[w] = u
			m.parentEdge[w] = ei
			m.children[u] = append(m.children[u], w)
			queue = append(queue, w)
		}
	}
	for ei := range m.q.Edges {
		if !treeEdge[ei] {
			m.nonTree = append(m.nonTree, ei)
		}
	}
}

// treeEdgeDir returns the direction of u's parent edge as seen from the
// parent: Out when the edge points parent -> u.
func (m *matcher) treeEdgeDir(u int) graph.Dir {
	e := m.q.Edges[m.parentEdge[u]]
	if e.From == m.parent[u] {
		return graph.Out
	}
	return graph.In
}

// childCandidates appends to dst the filtered candidates for tree child c
// reachable from the data vertex v matched to c's parent.
func (m *matcher) childCandidates(dst []uint32, c int, v uint32) []uint32 {
	e := m.q.Edges[m.parentEdge[c]]
	dir := m.treeEdgeDir(c)
	qc := &m.q.Vertices[c]

	// Pinned child: a direct edge-existence test beats list generation.
	if qc.ID != NoID {
		if int(qc.ID) >= m.g.NumVertices() {
			return dst
		}
		ok := false
		if e.Wildcard() {
			if dir == graph.Out {
				ok = m.g.HasEdge(v, qc.ID, graph.NoLabel)
			} else {
				ok = m.g.HasEdge(qc.ID, v, graph.NoLabel)
			}
		} else {
			if dir == graph.Out {
				ok = m.g.HasEdge(v, qc.ID, e.Label)
			} else {
				ok = m.g.HasEdge(qc.ID, v, e.Label)
			}
		}
		if ok && m.passFilters(c, qc.ID) {
			dst = append(dst, qc.ID)
		}
		return dst
	}

	base := m.adjacentSet(nil, v, dir, e.Label, qc.Labels)
	for _, w := range base {
		if m.passFilters(c, w) {
			dst = append(dst, w)
		}
	}
	return dst
}

// adjacentSet appends to dst the neighbors of v in direction dir matching
// edge label el (NoID = any) and carrying all of labels (paper §4.2,
// ExploreCandidateRegion's inductive case: intersect per-label groups,
// union when information is blank).
func (m *matcher) adjacentSet(dst []uint32, v uint32, dir graph.Dir, el uint32, labels []uint32) []uint32 {
	switch {
	case el != NoID && len(labels) == 1:
		return append(dst, m.g.Adj(v, dir, el, labels[0])...)
	case el != NoID && len(labels) > 1:
		sets := make([][]uint32, len(labels))
		for i, l := range labels {
			sets[i] = m.g.Adj(v, dir, el, l)
		}
		return intset.IntersectK(dst, sets...)
	case el != NoID:
		return m.g.AdjEdgeLabel(dst, v, dir, el)
	case len(labels) == 1:
		return m.g.AdjVertexLabel(dst, v, dir, labels[0])
	case len(labels) > 1:
		var tmp []uint32
		sets := make([][]uint32, len(labels))
		for i, l := range labels {
			start := len(tmp)
			tmp = m.g.AdjVertexLabel(tmp, v, dir, l)
			sets[i] = tmp[start:]
		}
		return intset.IntersectK(dst, sets...)
	default:
		return m.g.AdjAny(dst, v, dir)
	}
}
