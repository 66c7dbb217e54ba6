// Package engine executes SPARQL queries against a transformed RDF dataset
// using the core TurboHOM++ matcher. It translates basic graph patterns into
// query graphs under either transformation (folding constant rdf:type
// patterns into vertex labels under the type-aware transformation), pushes
// inexpensive FILTERs into exploration, evaluates expensive FILTERs after
// matching, and implements OPTIONAL as a SPARQL left join and UNION by
// sub-query splitting (paper §5.1). One evaluator, streamGroup, runs every
// group: top-level UNION alternatives and OPTIONAL sub-groups alike.
//
// Execution is organized around prepared queries: Prepare parses and plans
// once, and the resulting PreparedQuery can be executed many times,
// concurrently, either materialized (Exec), counted (Count) or streamed row
// by row (Select, All) — all over the same streaming pipeline, with the
// same rows in the same order. String-based Query/Count are thin wrappers
// that prepare and execute in one step.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/transform"
)

// Engine executes queries against one dataset. The dataset is held as an
// atomically swappable snapshot: a mutable store publishes a fresh
// transform.Data after every update batch via SetData, and every execution
// pins the snapshot current at its start — in-flight cursors and concurrent
// executions never observe a later snapshot mid-run.
type Engine struct {
	mode transform.Mode
	cur  atomic.Pointer[transform.Data]
	sem  core.Semantics
	opts core.Opts
}

// New builds an engine over transformed data with the given matcher options.
// Workers == 0 defaults to runtime.GOMAXPROCS(0). Each matcher run of Exec,
// Count, Select and All then decides for itself: one start candidate runs
// sequentially on the calling goroutine, two or more run the ordered region
// pipeline, whose reorder stage preserves the sequential row order and
// early termination. Nothing about the default costs determinism — results
// with Workers = N are byte-identical to Workers = 1, LIMIT or not. Pass
// Workers = 1 for strictly sequential execution (ablations, single-core
// boxes).
func New(data *transform.Data, opts core.Opts) *Engine {
	if opts.Workers == 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{mode: data.Mode, sem: core.Homomorphism, opts: opts}
	e.cur.Store(data)
	return e
}

// Data returns the current dataset snapshot.
func (e *Engine) Data() *transform.Data { return e.cur.Load() }

// SetData publishes a new dataset snapshot. The snapshot must come from the
// same store lineage as the previous one — same transformation mode and the
// same append-only dictionaries — so that prepared queries' pinned term IDs
// stay meaningful. Executions already running keep their pinned snapshot;
// executions starting afterwards observe the new one.
//
// The lineage contract is enforced where it is checkable: the mode must
// match and the epoch must not go backwards. Epochs keep increasing across
// restarts (a store restored from a persisted snapshot resumes at the
// snapshot's epoch), so this also catches accidentally publishing a stale
// pre-restart snapshot into a recovered engine.
func (e *Engine) SetData(d *transform.Data) {
	if d.Mode != e.mode {
		panic(fmt.Sprintf("engine: SetData with %s-transformed snapshot into a %s engine", d.Mode, e.mode))
	}
	if cur := e.cur.Load(); cur != nil && d.Epoch < cur.Epoch {
		panic(fmt.Sprintf("engine: SetData would move the snapshot epoch backwards (%d -> %d)", cur.Epoch, d.Epoch))
	}
	e.cur.Store(d)
}

// SetSemantics overrides the matching semantics (the default is the RDF
// e-graph homomorphism; Isomorphism gives classic subgraph isomorphism).
// Prepared queries read the engine configuration at execution time, so
// configure the engine fully before running queries: SetSemantics must not
// be called concurrently with any execution, including executions of
// previously prepared queries.
func (e *Engine) SetSemantics(s core.Semantics) { e.sem = s }

// Result is a materialized result set. Unbound positions (OPTIONAL) hold
// the empty term.
type Result struct {
	Vars []string
	Rows [][]rdf.Term
}

// PreparedQuery is a parsed and planned query. Preparation pays the SPARQL
// front-end cost (parsing, UNION/type-wildcard expansion, plan compilation
// against the dataset's dictionaries) exactly once; the prepared query is
// immutable afterwards and safe for concurrent execution.
//
// Plans are compiled per dataset snapshot: each execution pins the engine's
// current snapshot and reuses the cached compilation when it matches,
// recompiling (once) after the store has been updated. Term↔ID mappings are
// append-only, so recompilation only ever changes what the snapshot can
// change: candidate statistics, label views, and empty-by-unknown-term
// decisions.
//
// The cache holds only the newest compilation. Every execution — a cursor
// included — holds its own planEntry, so a superseded compilation lives
// exactly as long as the executions over it, and no longer.
type PreparedQuery struct {
	e      *Engine
	q      *sparql.Query
	vars   []string
	vi     *varIndex
	groups []*flatGroup

	keyOnce sync.Once
	key     string

	mu     sync.Mutex
	latest *planEntry
}

// planEntry is one snapshot's compilation of a prepared query.
type planEntry struct {
	data  *transform.Data
	plans []*plan
	fp    *cache.Footprint
}

// plansFor returns the plans compiled against snapshot d, compiling them
// unless d's are the newest cached. A compilation for an older snapshot
// never replaces a newer one.
func (pq *PreparedQuery) plansFor(d *transform.Data) (*planEntry, error) {
	pq.mu.Lock()
	defer pq.mu.Unlock()
	if pe := pq.latest; pe != nil && pe.data == d {
		return pe, nil
	}
	plans := make([]*plan, 0, len(pq.groups))
	for _, g := range pq.groups {
		p, err := pq.e.buildPlan(d, g, nil)
		if err != nil {
			return nil, err
		}
		plans = append(plans, p)
	}
	pe := &planEntry{data: d, plans: plans, fp: pq.e.plansFootprint(plans)}
	if pq.latest == nil || pq.latest.data.Epoch <= d.Epoch {
		pq.latest = pe
	}
	return pe, nil
}

// CacheKey identifies the query's result set across textual variations: the
// canonical rendering of the parsed query plus the engine's options
// fingerprint. Two query strings with the same key produce byte-identical
// result sets on the same snapshot; two queries with different semantics
// never share a key. It is the result cache's lookup key.
func (pq *PreparedQuery) CacheKey() string {
	pq.keyOnce.Do(func() {
		pq.key = sparql.Canonical(pq.q) + "\x00" + pq.e.fingerprint()
	})
	return pq.key
}

// fingerprint encodes every engine option that can change a query's result
// rows or their order. Workers and StreamBuffer are deliberately absent: row
// streams are byte-identical across worker counts by the pipeline's ordering
// contract.
func (e *Engine) fingerprint() string {
	o := e.opts
	return fmt.Sprintf("mode=%d;sem=%d;int=%t;nlf=%t;deg=%t;reuse=%t;cost=%t;nec=%t",
		e.mode, e.sem, o.Intersect, o.NoNLF, o.NoDegree, o.ReuseOrder,
		o.CostOrder, o.NoNEC)
}

// Prepare parses src and compiles its execution plan.
func (e *Engine) Prepare(src string) (*PreparedQuery, error) {
	q, err := sparql.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.PrepareParsed(q)
}

// PrepareParsed compiles an already-parsed query. The query must not be
// mutated afterwards.
func (e *Engine) PrepareParsed(q *sparql.Query) (*PreparedQuery, error) {
	pq := &PreparedQuery{
		e:      e,
		q:      q,
		vars:   q.ProjectedVars(),
		vi:     buildVarIndex(q),
		groups: e.expandGroups(q.Where),
	}
	// Compile eagerly against the current snapshot so preparation reports
	// errors up front; later snapshots recompile lazily through plansFor.
	if _, err := pq.plansFor(e.Data()); err != nil {
		return nil, err
	}
	return pq, nil
}

// Vars returns the projection, in SELECT order. The slice is shared; do not
// modify it.
func (pq *PreparedQuery) Vars() []string { return pq.vars }

// Ask reports whether the query is an ASK form: answered with a boolean
// (does at least one solution exist?) instead of a row set. The parser pins
// an ASK query's Limit to 1, so draining its cursor does no more work than
// finding the first solution.
func (pq *PreparedQuery) Ask() bool { return pq.q.Ask }

// Exec runs the prepared query and materializes every row. It drains the
// row sequence All yields and Select pulls, so its rows and their order are
// Select's for every worker count.
func (pq *PreparedQuery) Exec(ctx context.Context) (*Result, error) {
	var rows [][]rdf.Term
	for row, err := range pq.All(ctx) {
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return &Result{Vars: pq.vars, Rows: rows}, nil
}

// Count runs the prepared query returning only the number of rows. It uses
// a count-only fast path (no row materialization, no dictionary lookups —
// the paper's timing protocol) whenever the query shape allows.
func (pq *PreparedQuery) Count(ctx context.Context) (int, error) {
	q := pq.q
	d := pq.e.Data()
	pe, err := pq.plansFor(d)
	if err != nil {
		return 0, err
	}
	if !q.Distinct && q.Limit < 0 && q.Offset == 0 {
		total := 0
		fast := true
		for i, g := range pq.groups {
			n, ok, err := pq.e.tryFastCount(ctx, pe.plans[i], g)
			if err != nil {
				return 0, err
			}
			if !ok {
				fast = false
				break
			}
			total += n
		}
		if fast {
			return total, nil
		}
	}
	n := 0
	err = pq.stream(ctx, pe, nil, func([]rdf.Term) bool {
		n++
		return true
	})
	return n, err
}

// Query parses and executes a SPARQL query string.
func (e *Engine) Query(src string) (*Result, error) {
	return e.QueryContext(context.Background(), src)
}

// QueryContext parses and executes a SPARQL query string under ctx.
func (e *Engine) QueryContext(ctx context.Context, src string) (*Result, error) {
	pq, err := e.Prepare(src)
	if err != nil {
		return nil, err
	}
	return pq.Exec(ctx)
}

// Count parses and executes a query, returning only the number of rows.
func (e *Engine) Count(src string) (int, error) {
	return e.CountContext(context.Background(), src)
}

// CountContext parses and counts a query's rows under ctx.
func (e *Engine) CountContext(ctx context.Context, src string) (int, error) {
	pq, err := e.Prepare(src)
	if err != nil {
		return 0, err
	}
	return pq.Count(ctx)
}

// Select parses src and returns a streaming cursor over its rows.
func (e *Engine) Select(ctx context.Context, src string) (*Rows, error) {
	pq, err := e.Prepare(src)
	if err != nil {
		return nil, err
	}
	return pq.Select(ctx), nil
}

// tryFastCount counts a flat group's solutions without materializing rows.
// It applies when the group has no OPTIONALs, no post filters, and no
// variable-type expansions, and no predicate variable spans components.
func (e *Engine) tryFastCount(ctx context.Context, plan *plan, g *flatGroup) (int, bool, error) {
	if plan.empty {
		return 0, true, nil
	}
	if len(plan.optionals) > 0 || len(plan.post) > 0 || len(plan.typeExps) > 0 || len(g.fixed) > 0 {
		return 0, false, nil
	}
	if len(plan.comps) == 0 {
		return 1, true, nil // empty group pattern: one empty solution
	}
	// Predicate variables shared across components force a join.
	if plan.predVarSpansComponents() {
		return 0, false, nil
	}
	total := 1
	for _, c := range plan.comps {
		n, err := core.Count(ctx, plan.data.G, c.qg, e.sem, e.opts)
		if err != nil {
			return 0, false, err
		}
		total *= n
		if total == 0 {
			return 0, true, nil
		}
	}
	return total, true, nil
}

// varIndex assigns a dense slot to every variable in the query.
type varIndex struct {
	index map[string]int
	names []string
}

func buildVarIndex(q *sparql.Query) *varIndex {
	vi := &varIndex{index: map[string]int{}}
	set := map[string]bool{}
	q.Where.Vars(set)
	for _, v := range q.ProjectedVars() {
		set[v] = true
	}
	// Deterministic slot order.
	var names []string
	for v := range set {
		names = append(names, v)
	}
	sortStrings(names)
	for _, v := range names {
		vi.index[v] = len(vi.names)
		vi.names = append(vi.names, v)
	}
	return vi
}

func (vi *varIndex) slot(name string) int {
	i, ok := vi.index[name]
	if !ok {
		return -1
	}
	return i
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// fixedBinding pins a variable to a constant term for one alternative (used
// by the wildcard-predicate rdf:type expansion).
type fixedBinding struct {
	name string
	term rdf.Term
}

// flatGroup is a group pattern after UNION expansion: triples, filters and
// optionals only, plus per-alternative fixed variable bindings.
type flatGroup struct {
	triples   []sparql.TriplePattern
	filters   []sparql.Expr
	optionals []*sparql.GroupPattern
	fixed     []fixedBinding
}

// expandUnions distributes every UNION chain in g, producing the flat
// alternatives whose solutions are concatenated (paper §5.1: split into
// sub-queries, union the solutions).
func expandUnions(g *sparql.GroupPattern) []*flatGroup {
	base := &flatGroup{
		triples:   g.Triples,
		filters:   g.Filters,
		optionals: g.Optionals,
	}
	groups := []*flatGroup{base}
	for _, chain := range g.Unions {
		var next []*flatGroup
		for _, cur := range groups {
			for _, alt := range chain {
				for _, altFlat := range expandUnions(alt) {
					merged := &flatGroup{
						triples:   concat(cur.triples, altFlat.triples),
						filters:   concat(cur.filters, altFlat.filters),
						optionals: concat(cur.optionals, altFlat.optionals),
						fixed:     concat(cur.fixed, altFlat.fixed),
					}
					next = append(next, merged)
				}
			}
		}
		groups = next
	}
	return groups
}

// expandGroups flattens g's UNIONs and, under the type-aware transformation,
// expands every variable-predicate pattern into its rdf:type alternative.
// The type-aware graph has no rdf:type edges — they were folded into vertex
// labels — so a wildcard predicate must additionally be allowed to bind
// rdf:type, with the object ranging over the subject's direct type set
// Lsimple (paper §4.2, the simple entailment regime). Each such pattern
// doubles the alternatives: one where it matches a real edge (the wildcard
// can never bind rdf:type there, keeping the alternatives disjoint) and one
// where it is rewritten to a constant rdf:type pattern with the predicate
// variable pinned.
func (e *Engine) expandGroups(g *sparql.GroupPattern) []*flatGroup {
	flats := expandUnions(g)
	if e.mode != transform.TypeAware {
		return flats
	}
	var out []*flatGroup
	for _, f := range flats {
		out = append(out, e.expandTypeWildcards(f)...)
	}
	return out
}

// maxWildcardExpansion caps the 2^k alternative blow-up of groups with many
// variable predicates; beyond it the rdf:type alternatives are dropped
// (matching plain graph-edge semantics).
const maxWildcardExpansion = 4

func (e *Engine) expandTypeWildcards(f *flatGroup) []*flatGroup {
	var wild []int
	for i, tp := range f.triples {
		if tp.P.IsVar() {
			wild = append(wild, i)
		}
	}
	if len(wild) == 0 || len(wild) > maxWildcardExpansion {
		return []*flatGroup{f}
	}
	var out []*flatGroup
	for mask := 0; mask < 1<<len(wild); mask++ {
		alt := &flatGroup{
			triples:   append([]sparql.TriplePattern(nil), f.triples...),
			filters:   f.filters,
			optionals: f.optionals,
			fixed:     append([]fixedBinding(nil), f.fixed...),
		}
		for bit, ti := range wild {
			if mask&(1<<bit) == 0 {
				continue
			}
			tp := alt.triples[ti]
			alt.triples[ti] = sparql.TriplePattern{
				S: tp.S,
				P: sparql.Constant(rdf.TypeTerm),
				O: tp.O,
			}
			alt.fixed = append(alt.fixed, fixedBinding{name: tp.P.Var, term: rdf.TypeTerm})
		}
		out = append(out, alt)
	}
	return out
}

func concat[T any](a, b []T) []T {
	if len(b) == 0 {
		return a
	}
	out := make([]T, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v (%d rows)", r.Vars, len(r.Rows))
	return b.String()
}
