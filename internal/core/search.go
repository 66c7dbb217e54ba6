package core

import (
	"context"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/intset"
)

// This file holds the state of SubgraphSearch and the helpers its loops
// share. The search itself is the explicit-stack machine in cursor.go.

// searchState is the per-worker mutable state of SubgraphSearch.
type searchState struct {
	m     *matcher
	ctx   context.Context
	visit Visitor

	rg   *region
	plan *searchPlan

	mapping  []uint32 // M: query vertex -> data vertex
	edgeBind []uint32 // Me: query edge -> bound edge label
	varBind  []uint32 // predicate variable -> bound edge label (NoID unbound)
	used     []bool   // F: isomorphism-mode in-use flags (nil for hom)

	count   int
	steps   int // search-loop iterations since the last context check
	stopped bool
	err     error // context error that stopped the search (nil otherwise)

	profile *ProfileResult // optional effort counters (Profile only)

	// stop, when non-nil, is the pipeline's global abandon flag: the emitter
	// sets it when the consumer stops early, and the cursor's periodic check
	// folds it into the same cadence as the context check so a worker deep
	// inside one enormous region notices promptly.
	stop *atomic.Bool

	// NEC expansion state (nil without a reduction). classCands[ci] is the
	// snapshot of class ci's admissible candidate set, taken when the search
	// passes the representative's position; fullMap/fullEdges are the
	// original-query-space Match buffers filled by expansion at emit time.
	classCands [][]uint32
	fullMap    []uint32
	fullEdges  []uint32

	// Per-depth scratch buffers for the +INT intersections; indexed by the
	// matching-order position so the frames of nested positions never alias.
	candBuf  [][]uint32
	adjBuf   [][]uint32
	listsBuf [][][]uint32
	rootBuf  [1]uint32
	lblBuf   []uint32
}

func newSearchState(m *matcher, visit Visitor) *searchState {
	n := len(m.q.Vertices)
	s := &searchState{
		m:        m,
		ctx:      m.ctx,
		visit:    visit,
		mapping:  make([]uint32, n),
		edgeBind: make([]uint32, len(m.q.Edges)),
		candBuf:  make([][]uint32, n),
		adjBuf:   make([][]uint32, n),
		listsBuf: make([][][]uint32, n),
	}
	maxVar := -1
	for i, e := range m.q.Edges {
		if e.Wildcard() {
			s.edgeBind[i] = NoID
		} else {
			s.edgeBind[i] = e.Label
		}
		if e.PredVar > maxVar {
			maxVar = e.PredVar
		}
	}
	s.varBind = make([]uint32, maxVar+1)
	for i := range s.varBind {
		s.varBind[i] = NoID
	}
	if m.sem == Isomorphism {
		s.used = make([]bool, m.g.NumVertices())
	}
	if m.red != nil {
		s.classCands = make([][]uint32, len(m.red.classes))
		s.fullMap = make([]uint32, len(m.red.orig.Vertices))
		s.fullEdges = make([]uint32, len(m.red.orig.Edges))
		for i, e := range m.red.orig.Edges {
			if m.red.edgeMap[i] < 0 {
				// Dropped member edges are constant-label by construction.
				s.fullEdges[i] = e.Label
			}
		}
	}
	return s
}

// emitMatch counts one concrete solution and delivers it; a visitor
// returning false stops the search.
func (s *searchState) emitMatch(mv, me []uint32) {
	s.count++
	if s.visit != nil && !s.visit(Match{Vertices: mv, EdgeLabels: me}) {
		s.stopped = true
	}
}

// bulkCount accounts for n solutions at once without materializing them —
// the combinatorial fast path of the NEC expansion. The accumulator
// saturates instead of wrapping: expansion factors themselves saturate in
// regionCursor.emit, so repeated regions could otherwise push the sum
// negative.
func (s *searchState) bulkCount(n int) {
	const maxInt = int(^uint(0) >> 1)
	if n > maxInt-s.count {
		s.count = maxInt
	} else {
		s.count += n
	}
}

// intersectJoins computes cands ∩ adj-lists of the already-matched endpoints
// of the given constant non-tree edges, using per-depth buffers.
func (s *searchState) intersectJoins(dc, u int, cands []uint32, edges []int) []uint32 {
	m := s.m
	lists := append(s.listsBuf[dc][:0], cands)
	adjScratch := s.adjBuf[dc][:0]
	for _, ei := range edges {
		e := m.q.Edges[ei]
		var w int
		var dir graph.Dir
		if e.From == u {
			// Candidates x with x --el--> M(To): incoming adjacency of M(To).
			w, dir = e.To, graph.In
		} else {
			w, dir = e.From, graph.Out
		}
		vw := s.mapping[w]
		if labels := m.q.Vertices[u].Labels; len(labels) > 0 {
			// Candidates all carry labels[0], so the (el, labels[0]) group
			// is a complete filter.
			lists = append(lists, m.g.Adj(vw, dir, e.Label, labels[0]))
		} else {
			start := len(adjScratch)
			adjScratch = m.g.AdjEdgeLabel(adjScratch, vw, dir, e.Label)
			lists = append(lists, adjScratch[start:])
		}
	}
	s.adjBuf[dc] = adjScratch
	s.listsBuf[dc] = lists
	s.candBuf[dc] = intset.IntersectK(s.candBuf[dc][:0], lists...)
	return s.candBuf[dc]
}

// checkConstJoins is the unoptimized IsJoinable: membership tests per
// candidate.
func (s *searchState) checkConstJoins(u int, v uint32, edges []int) bool {
	m := s.m
	for _, ei := range edges {
		e := m.q.Edges[ei]
		var ok bool
		if e.From == u {
			ok = m.g.HasEdge(v, s.mapping[e.To], e.Label)
		} else {
			ok = m.g.HasEdge(s.mapping[e.From], v, e.Label)
		}
		if !ok {
			return false
		}
	}
	return true
}

func (s *searchState) checkSelfLoops(v uint32, edges []int) bool {
	for _, ei := range edges {
		if !s.m.g.HasEdge(v, v, s.m.q.Edges[ei].Label) {
			return false
		}
	}
	return true
}
