package core

import (
	"context"

	"repro/internal/graph"
)

// ProfileResult reports where a match run spent its effort — the counters
// behind the paper's §3 profiling discussion (candidate region exploration
// vs subgraph search). A parallel run merges its workers' counters into the
// same totals a sequential run reports.
type ProfileResult struct {
	// StartVertex is the chosen starting query vertex.
	StartVertex int
	// StartCandidates is the number of starting data vertices (candidate
	// regions attempted).
	StartCandidates int
	// Regions is the number of non-empty candidate regions visited. An
	// early-terminated run (a visitor returning false, or context
	// cancellation) reports only the regions actually reached.
	Regions int
	// ExploredCandidates is the total number of candidate vertices stored
	// across all regions — the paper's Σ|CR(u)| measure of exploration
	// work.
	ExploredCandidates int
	// SearchNodes is the number of (query vertex, data vertex) bindings
	// attempted by SubgraphSearch.
	SearchNodes int
	// Solutions is the number of matches found.
	Solutions int

	// NECClasses is the number of neighborhood equivalence classes (two or
	// more members) the query reduction merged; zero when the reduction is
	// disabled or found nothing to merge.
	NECClasses int
	// NECMergedVertices is the number of query vertices the reduction
	// removed from the search (sum over classes of size-1).
	NECMergedVertices int
	// NECExpansionsSkipped counts solutions obtained by combination
	// expansion instead of subgraph search: every reduced solution expanded
	// into f full solutions adds f-1 (the search paths the reduction
	// avoided exploring).
	NECExpansionsSkipped int

	// SignatureChecked counts candidate vertices tested against the compact
	// neighborhood-signature index (vertices whose query vertex required at
	// least one concrete (direction, edge label, neighbor label) triple).
	SignatureChecked int
	// SignatureKilled counts how many of those the 64-bit signature rejected
	// before any label, degree, or adjacency-group work.
	SignatureKilled int
}

// merge folds a pipeline worker's privately accumulated counters into the
// run-wide result. Only the additive effort counters move; identity fields
// (StartVertex, StartCandidates, NECClasses, NECMergedVertices) are written
// once by the coordinator.
func (pr *ProfileResult) merge(src *ProfileResult) {
	pr.Regions += src.Regions
	pr.ExploredCandidates += src.ExploredCandidates
	pr.SearchNodes += src.SearchNodes
	pr.NECExpansionsSkipped += src.NECExpansionsSkipped
	pr.SignatureChecked += src.SignatureChecked
	pr.SignatureKilled += src.SignatureKilled
}

// profileHeader writes the run's identity fields into the profile: the
// chosen start vertex, its candidate count, and the shape of the NEC
// reduction. The Cursor and the pipeline both write them here, once per run.
func (m *matcher) profileHeader(start, cands int) {
	pr := m.opts.Profile
	if pr == nil {
		return
	}
	pr.StartVertex = start
	pr.StartCandidates = cands
	if m.red != nil {
		pr.NECClasses = len(m.red.classes)
		pr.NECMergedVertices = m.red.mergedVertices()
	}
}

// foldSigCounters adds the matcher's signature-filter atomics into the
// run's profile. Every execution path (Cursor, runPipeline) calls it
// exactly once, when the run completes.
func (m *matcher) foldSigCounters() {
	if pr := m.opts.Profile; pr != nil {
		pr.SignatureChecked += int(m.sigChecked.Load())
		pr.SignatureKilled += int(m.sigKilled.Load())
	}
}

// Profile counts the matches with one Cursor and returns its effort
// counters along with the solution count. It is a diagnostic tool: the run
// pays for counting but is otherwise identical to a sequential Count. It
// shares the counting machinery with Opts.Profile, which any run can use
// directly.
func Profile(ctx context.Context, g graph.View, q *QueryGraph, sem Semantics, opts Opts) (ProfileResult, error) {
	var pr ProfileResult
	if err := q.Validate(); err != nil {
		return pr, err
	}
	opts.Workers = 1
	opts.Profile = &pr
	n, _, err := newMatcher(ctx, g, q, sem, opts).cursor(nil).Resume(0)
	pr.Solutions = n
	return pr, err
}
