package turbohom

import (
	"time"

	"repro/internal/core"
	"repro/internal/transform"
)

// Transformation selects how RDF triples become the labeled graph the
// matcher runs on (paper §3.2 vs §4.1).
type Transformation int

const (
	// TypeAware folds rdf:type / rdfs:subClassOf information into vertex
	// label sets, shrinking both data and query graphs — the paper's
	// recommended transformation and the default.
	TypeAware Transformation = iota
	// Direct keeps the RDF graph's topology verbatim: every triple is an
	// edge, including type triples.
	Direct
)

func (t Transformation) String() string {
	if t == Direct {
		return "direct"
	}
	return "type-aware"
}

// NECMode toggles the NEC (Neighborhood Equivalence Class) query reduction,
// TurboISO's device for taming repeated query structure (paper §2.2): query
// variables with identical labels and identical constant-predicate edges to
// one shared subject/object are merged, and their bindings are enumerated by
// combination instead of by redundant search. The zero value enables it.
type NECMode int

const (
	// NECOn (the default) merges equivalent query vertices. Star-shaped
	// patterns with repeated predicates — `?h :knows ?a . ?h :knows ?b .` —
	// are matched once per class instead of once per member.
	NECOn NECMode = iota
	// NECOff disables the reduction; every query vertex is searched
	// individually. Result sets are identical either way — NECOff exists
	// for ablation and differential testing.
	NECOff
)

func (m NECMode) String() string {
	if m == NECOff {
		return "nec-off"
	}
	return "nec-on"
}

// Options configure a Store. The zero value (and nil) mean: type-aware
// transformation, the full TurboHOM++ optimization suite, the NEC query
// reduction, and automatic parallelism (Workers resolves to
// runtime.GOMAXPROCS; parallel results keep the sequential row order).
type Options struct {
	// Transformation selects the graph transformation.
	Transformation Transformation

	// Workers sets the number of goroutines that process candidate regions
	// in parallel (paper §5.2). Zero means automatic (runtime.GOMAXPROCS);
	// 1 forces sequential execution. With Workers > 1, a query whose start
	// vertex has two or more candidate regions runs the ordered region
	// pipeline: workers search regions concurrently while a reorder stage
	// emits rows in the exact sequential order, so row order stays
	// deterministic — byte-identical across worker counts — and closing a
	// cursor early still abandons the unexplored regions. A query with one
	// candidate region has nothing to distribute and runs sequentially on
	// the caller's goroutine at any Workers.
	Workers int

	// StreamBuffer bounds parallel streaming's buffering in ROWS, and
	// applies only to queries that run the region pipeline: the
	// number of not-yet-delivered solutions workers may hold ahead of the
	// row consumer before they block with their region search suspended
	// (per-row backpressure). The bound is independent of region size —
	// one region yielding a million rows still buffers only
	// O(StreamBuffer) of them, so the first rows of a pathological region
	// reach the consumer after a bounded amount of search, not after the
	// region is exhausted. It may be exceeded by a small constant factor
	// (one in-production segment per in-flight batch). Zero means
	// 64×Workers. Smaller values tighten memory and how much work an
	// early-closed cursor can overshoot; larger values smooth the
	// worker/consumer handoff.
	StreamBuffer int

	// NEC toggles the neighborhood-equivalence-class query reduction.
	// The zero value (NECOn) enables it; set NECOff to search every query
	// vertex individually.
	NEC NECMode

	// DisableOptimizations reverts the matcher to the plain TurboHOM
	// configuration: no +INT, NLF and degree filters active, per-region
	// matching orders. Useful for reproducing the paper's ablations.
	DisableOptimizations bool

	// CostOrder ranks each region's matching order with the graph's
	// precomputed cardinality statistics (label counts, predicate
	// fan-outs) instead of the paper's candidate-population heuristic.
	// The answer SET is identical either way; only the enumeration order
	// of rows — and the amount of search needed to produce them — can
	// change. Off by default so row orders stay stable across releases;
	// turn it on for skewed data where the heuristic misjudges path
	// costs. It composes with every optimization suite above.
	CostOrder bool

	// SyncWAL makes a durable store (OpenDir) fsync the write-ahead log on
	// every Insert/Delete before the mutation is acknowledged, so no
	// acknowledged write is lost even to an OS crash or power failure. Off
	// by default: the log is written (and protected against torn tails by
	// per-record checksums) but buffered by the OS, which survives process
	// crashes — the common case — at a fraction of the latency. Ignored by
	// in-memory stores.
	SyncWAL bool
}

// coreOpts resolves the configuration into matcher options.
func (o *Options) coreOpts() core.Opts {
	var opts core.Opts
	switch {
	case o == nil:
		opts = core.Optimized()
	case o.DisableOptimizations:
		opts = core.Baseline()
	default:
		opts = core.Optimized()
	}
	if o != nil {
		opts.Workers = o.Workers
		opts.StreamBuffer = o.StreamBuffer
		opts.CostOrder = o.CostOrder
		if o.NEC == NECOff {
			opts.NoNEC = true
		}
	}
	return opts
}

func (o *Options) syncWAL() bool { return o != nil && o.SyncWAL }

// ServerOptions configure the SPARQL 1.1 Protocol endpoint (`turbohom
// serve`, internal/server). They are the serving-side limits: everything
// about how the engine executes a query lives in Options; everything about
// how much of the server one HTTP client may hold lives here. The zero
// value serves with a 30-second query budget, unlimited rows, a 128-entry
// prepared-query cache, and a 10-second shutdown drain.
type ServerOptions struct {
	// QueryTimeout bounds one request's execution wall time. The request
	// context is cancelled when it expires, which aborts the query's cursor
	// mid-stream (the matcher abandons its remaining candidate regions).
	// Zero means the default of 30 seconds; negative means no limit.
	QueryTimeout time.Duration

	// MaxRows truncates a SELECT response after this many rows. The
	// truncation is well-formed output — the results document simply ends —
	// and is announced in the X-Turbohom-Truncated HTTP trailer, which a
	// streaming response can still set after the body. 0 means unlimited.
	MaxRows int

	// PreparedCache is the size of the server's prepared-query LRU: repeated
	// query strings skip parsing and planning entirely (prepared queries
	// recompile themselves lazily per store snapshot, so caching stays
	// correct across updates). 0 means the default of 128; negative
	// disables caching.
	PreparedCache int

	// DrainTimeout bounds graceful shutdown: in-flight requests — including
	// streaming cursors mid-drain — get this long to finish before their
	// contexts are cancelled and connections closed. Zero means the default
	// of 10 seconds.
	DrainTimeout time.Duration

	// ReadOnly rejects SPARQL UPDATE requests with 403 Forbidden while
	// leaving queries untouched.
	ReadOnly bool

	// ResultCacheBytes is the byte budget of the server's result cache:
	// materialized result sets keyed on (canonical query text, engine
	// options, snapshot epoch) and replayed for repeated queries without
	// re-executing the matcher. Committed updates invalidate exactly the
	// entries whose query footprint overlaps the batch's delta footprint;
	// entries provably untouched by an update are carried forward to the
	// new epoch. A cache hit is announced in the X-Turbohom-Cache response
	// header. 0 means the default of 64 MiB; negative disables the cache.
	ResultCacheBytes int64
}

// Defaults for the zero ServerOptions value.
const (
	defaultQueryTimeout     = 30 * time.Second
	defaultPreparedCache    = 128
	defaultDrainTimeout     = 10 * time.Second
	defaultResultCacheBytes = int64(64) << 20
)

// EffectiveQueryTimeout resolves the zero value to the default budget.
func (o ServerOptions) EffectiveQueryTimeout() time.Duration {
	switch {
	case o.QueryTimeout < 0:
		return 0
	case o.QueryTimeout == 0:
		return defaultQueryTimeout
	}
	return o.QueryTimeout
}

// EffectivePreparedCache resolves the zero value to the default size.
func (o ServerOptions) EffectivePreparedCache() int {
	switch {
	case o.PreparedCache < 0:
		return 0
	case o.PreparedCache == 0:
		return defaultPreparedCache
	}
	return o.PreparedCache
}

// EffectiveResultCacheBytes resolves the zero value to the default budget;
// a negative setting resolves to 0 (caching disabled).
func (o ServerOptions) EffectiveResultCacheBytes() int64 {
	switch {
	case o.ResultCacheBytes < 0:
		return 0
	case o.ResultCacheBytes == 0:
		return defaultResultCacheBytes
	}
	return o.ResultCacheBytes
}

// EffectiveDrainTimeout resolves the zero value to the default budget.
func (o ServerOptions) EffectiveDrainTimeout() time.Duration {
	if o.DrainTimeout <= 0 {
		return defaultDrainTimeout
	}
	return o.DrainTimeout
}

func (o *Options) mode() transform.Mode {
	if o != nil && o.Transformation == Direct {
		return transform.Direct
	}
	return transform.TypeAware
}
