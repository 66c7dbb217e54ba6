package core

// Semantics selects the matching semantics.
type Semantics uint8

const (
	// Homomorphism is the RDF pattern-matching semantics (paper Def. 2):
	// no injectivity, weakened degree/NLF filters, and edge-label bindings
	// (Me) for variable predicates.
	Homomorphism Semantics = iota
	// Isomorphism is classic subgraph isomorphism (paper Def. 1): the
	// vertex mapping must be injective.
	Isomorphism
)

func (s Semantics) String() string {
	if s == Isomorphism {
		return "isomorphism"
	}
	return "homomorphism"
}

// Opts control the optimization suite and execution of a match. The zero
// value runs the plain TurboHOM configuration: no +INT, NLF and degree
// filters enabled, per-region matching orders, single-threaded.
type Opts struct {
	// Intersect enables +INT: bulk IsJoinable tests via one k-way
	// intersection per candidate list instead of per-candidate binary
	// searches (paper §4.3).
	Intersect bool
	// NoNLF disables the neighborhood label frequency filter (-NLF).
	NoNLF bool
	// NoDegree disables the degree filter (-DEG).
	NoDegree bool
	// ReuseOrder computes the matching order for the first candidate
	// region only and reuses it for all others (+REUSE).
	ReuseOrder bool
	// CostOrder ranks the root-to-leaf query paths by cardinality estimates
	// derived from the graph's precomputed statistics (average fanouts with
	// join-selectivity clamps) instead of the paper's candidate-population
	// heuristic when determining each region's matching order. The result
	// SET is unchanged — only the enumeration order of solutions can differ,
	// because the matching order is part of the sequential enumeration
	// contract. Falls back to the paper heuristic when the graph carries no
	// statistics.
	CostOrder bool
	// NoNEC disables the NEC query reduction (merging equivalent query
	// vertices and enumerating their solutions by combination, paper §2.2).
	// The reduction is on by default because it only ever shrinks the
	// search; disable it to reproduce the unreduced search or to
	// differential-test the expansion.
	NoNEC bool
	// Workers sets the number of goroutines processing starting vertices
	// (paper §5.2). Values < 2 mean sequential execution. Stream, Collect
	// and Count honor it through the ordered region pipeline when the start
	// vertex has two or more candidates: workers claim candidate-region
	// batches from a shared counter and stream each batch's rows through
	// its own channel, and the calling goroutine replays the batches in
	// sequential region order, so row order, early termination (a visitor
	// returning false) and cancellation behave exactly as in a sequential
	// run. No more workers start than a run has batches. A run with one
	// start candidate, or a point-shaped query, has no regions to distribute
	// and runs sequentially at any Workers.
	Workers int
	// StreamBuffer bounds the parallel pipeline's buffering in ROWS, and
	// applies only to runs that start the pipeline: the
	// number of not-yet-delivered solutions workers may hold ahead of the
	// emitting goroutine before they block with their region search
	// suspended (per-row backpressure). The bound is independent of region
	// size — a single region yielding a million rows still buffers only
	// O(StreamBuffer) of them — and may be exceeded by a small constant
	// factor (one in-production segment per in-flight batch). 0 means
	// 64×Workers. Smaller values tighten memory and the work an
	// early-terminated run can overshoot; larger values smooth the
	// worker/emitter handoff.
	StreamBuffer int
	// Profile, when non-nil, accumulates effort counters (candidate regions
	// explored, search-tree nodes visited) into the pointed-to result during
	// the run. Parallel runs merge per-worker counters into it before
	// returning: a run that completes (or stops by visitor at the very
	// end) reports the same Regions/SearchNodes totals as a sequential
	// run, while an early-terminated parallel run may report somewhat more —
	// workers race ahead of the emitter within the reorder window. The
	// pointed-to result must not be read until the call returns. Solutions
	// is not filled in — it is the run's return value.
	Profile *ProfileResult
}

// Optimized returns the full TurboHOM++ optimization set (+INT, -NLF,
// -DEG, +REUSE), single-threaded.
func Optimized() Opts {
	return Opts{Intersect: true, NoNLF: true, NoDegree: true, ReuseOrder: true}
}

// Baseline returns the unoptimized TurboHOM configuration.
func Baseline() Opts { return Opts{} }
