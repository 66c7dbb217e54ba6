package core

import (
	"context"

	"repro/internal/graph"
)

// ExplainResult describes how the matcher executed (or would execute) a
// query: the chosen start vertex, the matching order of the first surviving
// candidate region, the cost model's per-position cardinality estimates,
// and the run's effort counters — including the signature filter's
// checked/killed rates. Vertex indices refer to the ORIGINAL query graph:
// when the NEC reduction merged vertices, each order position reports the
// representative's original index.
type ExplainResult struct {
	// StartVertex is the chosen starting query vertex (original index).
	StartVertex int
	// StartCandidates is the size of its refined candidate list.
	StartCandidates int
	// CostOrdered reports whether the statistics-driven cost model ranked
	// the matching order (Opts.CostOrder with usable statistics); false
	// means the paper's candidate-population heuristic did.
	CostOrdered bool
	// Order is the matching order of the first surviving region, as
	// original query vertex indices; Order[0] is the start vertex. A
	// point-shaped query reports just the start vertex.
	Order []int
	// EstRows[i] is the cost model's estimated number of partial solutions
	// after binding Order[i] — the per-position search cardinality the
	// ranking reasoned about. Empty when no region survived exploration.
	EstRows []float64
	// Profile holds the run's effort counters (search nodes, signature
	// checked/killed, NEC statistics), with Solutions filled in.
	Profile ProfileResult
	// Solutions is the number of matches found.
	Solutions int
}

// Explain counts the matches with one Cursor and reports the plan the
// matcher chose together with its effort counters. It is a diagnostic: the
// run pays for full execution (Solutions is exact); cancelling ctx cuts it
// short with ctx.Err().
func Explain(ctx context.Context, g graph.View, q *QueryGraph, sem Semantics, opts Opts) (ExplainResult, error) {
	var er ExplainResult
	if err := q.Validate(); err != nil {
		return er, err
	}
	opts.Workers = 1
	var pr ProfileResult
	opts.Profile = &pr
	m := newMatcher(ctx, g, q, sem, opts)
	st := m.g.Stats()
	er.CostOrdered = opts.CostOrder && st != nil
	orig := func(u int) int {
		if m.red != nil {
			return m.red.repOrig[u]
		}
		return u
	}
	m.onPlan = func(rg *region, plan *searchPlan) {
		// The first surviving region's plan is the one reported: under
		// +REUSE it is the only plan, and without it the later per-region
		// plans differ only through region-local candidate counts.
		if er.Order != nil {
			return
		}
		er.Order = make([]int, len(plan.order))
		for i, u := range plan.order {
			er.Order[i] = orig(u)
		}
		if st != nil {
			er.EstRows = m.orderCosts(rg, plan, st)
		}
	}
	n, _, err := m.cursor(nil).Resume(0)
	er.StartVertex = orig(pr.StartVertex)
	er.StartCandidates = pr.StartCandidates
	if er.Order == nil {
		er.Order = []int{er.StartVertex}
	}
	pr.Solutions = n
	er.Profile = pr
	er.Solutions = n
	return er, err
}
