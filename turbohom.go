package turbohom

import (
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/storage"
	"repro/internal/transform"
)

// ErrClosed is returned by mutations on a store after Close.
var ErrClosed = errors.New("turbohom: store is closed")

// Store is an in-memory RDF store queryable with SPARQL. Build one with
// New, Open, or OpenFile; mutate it with Insert, Delete, and Compact.
//
// A Store is safe for concurrent use. Readers never block: every query
// execution — a Prepare, a Select cursor, an Exec, a Count — pins the
// immutable dataset snapshot current at its start and computes entirely
// against it, so an in-flight Rows cursor enumerates exactly the solutions
// of the store as it stood when the cursor was opened, no matter how many
// updates, deletes or compactions land while it drains (snapshot isolation).
// Writers are serialized against each other and publish a fresh snapshot
// per call.
//
// Updates follow a differential-index design: Insert and Delete land in a
// small delta overlay (added/removed edges and labels plus appended
// vertices) merged on the fly with the compacted base, and Compact folds the
// delta back into a fresh base. Queries over a small delta run within a
// constant factor of compacted speed; compact when the delta has grown large
// or a natural maintenance window arrives. Under the type-aware
// transformation, rdfs:subClassOf changes rewrite the label closure and
// trigger an implicit compaction.
// A store built with New, Open, or OpenFile lives purely in memory; one
// opened with OpenDir is durable — every Insert and Delete batch is recorded
// in a write-ahead log before it is applied, and Compact rewrites the
// on-disk snapshot and truncates the log. Queries are oblivious to the
// difference.
type Store struct {
	mu     sync.Mutex // serializes writers
	mut    *transform.Mutable
	eng    *engine.Engine
	wal    *storage.WAL // nil for in-memory stores
	dir    string       // storage directory of a durable store
	closed bool
	// commit holds the OnCommit observers, invoked under mu so batches are
	// delivered in epoch order.
	commit []func(epoch uint64, delta *cache.Footprint)
}

// New builds a store from triples already in memory. opts may be nil for
// the defaults (type-aware transformation, all optimizations). Duplicate
// triples collapse; literal terms are canonicalized (escape sequences
// normalized) so equal literals intern as one term.
func New(triples []Triple, opts *Options) *Store {
	mut := transform.NewMutable(triples, opts.mode())
	return &Store{
		mut: mut,
		eng: engine.New(mut.Current(), opts.coreOpts()),
	}
}

// Insert adds triples to the store and returns how many of them were new
// (already-present triples are ignored). The update lands in the store's
// delta overlay and becomes visible atomically: executions started before
// Insert returns keep their snapshot, executions started afterwards see
// every inserted triple. Literal terms are canonicalized exactly as New and
// the N-Triples reader do.
//
// On a durable store the batch is appended to the write-ahead log (and, with
// Options.SyncWAL, fsynced) before it is applied; a logging error leaves the
// store unchanged. In-memory stores never return an error unless closed.
func (s *Store) Insert(triples []Triple) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.wal != nil {
		if err := s.wal.Append(storage.Batch{Ins: triples}); err != nil {
			return 0, err
		}
	}
	data, n := s.mut.Apply(triples, nil)
	if n > 0 {
		s.eng.SetData(data)
		s.notifyCommitLocked(data.Epoch)
	}
	return n, nil
}

// Delete removes triples from the store and returns how many were actually
// present. Like Insert it is atomic with respect to queries: in-flight
// executions keep observing the deleted triples through their pinned
// snapshot; new executions do not. Durable stores log the batch before
// applying it, exactly as Insert does.
func (s *Store) Delete(triples []Triple) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.wal != nil {
		if err := s.wal.Append(storage.Batch{Del: triples}); err != nil {
			return 0, err
		}
	}
	data, n := s.mut.Apply(nil, triples)
	if n > 0 {
		s.eng.SetData(data)
		s.notifyCommitLocked(data.Epoch)
	}
	return n, nil
}

// Update executes a SPARQL 1.1 Update request — a ';'-separated sequence of
// INSERT DATA and DELETE DATA operations (the ground forms; pattern-based
// updates are not supported) — and reports how many triples were actually
// added and removed. Each operation is applied as one atomic Insert or
// Delete batch, in document order: on a durable store every operation is
// WAL-logged before it applies, and an error mid-sequence leaves the
// already-applied operations in place (the error reports nothing beyond the
// standard Insert/Delete contract). Queries running concurrently keep their
// pinned snapshots.
func (s *Store) Update(src string) (inserted, deleted int, err error) {
	u, err := sparql.ParseUpdate(src)
	if err != nil {
		return 0, 0, err
	}
	for _, op := range u.Ops {
		var n int
		if op.Insert {
			n, err = s.Insert(op.Triples)
			inserted += n
		} else {
			n, err = s.Delete(op.Triples)
			deleted += n
		}
		if err != nil {
			return inserted, deleted, err
		}
	}
	return inserted, deleted, nil
}

// Compact folds the accumulated delta back into the compacted base
// representation (the CSR layout of paper §4.2), restoring full query speed
// after a long run of updates. Results are unaffected: compaction publishes
// a new snapshot with identical content, and in-flight executions keep
// their pre-compaction snapshot.
//
// On a durable store Compact also rewrites the on-disk snapshot from the
// freshly compacted state and then truncates the write-ahead log. The
// snapshot lands (atomically, via rename) before the log is reset, so a
// crash between the two steps merely replays already-applied batches —
// a no-op under set semantics.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	d := s.mut.Compact()
	s.eng.SetData(d)
	s.notifyCommitLocked(d.Epoch)
	if s.wal == nil {
		return nil
	}
	sd, err := s.mut.FrozenSegment()
	if err != nil {
		return err
	}
	if err := storage.WriteSegmentFile(filepath.Join(s.dir, snapshotFile), sd); err != nil {
		return err
	}
	return s.wal.Reset()
}

// Close releases a durable store's write-ahead log. Mutations after Close
// return ErrClosed; queries keep working against the last published
// snapshot. Close is idempotent, and a no-op on in-memory stores.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal != nil {
		return s.wal.Close()
	}
	return nil
}

// Epoch returns the monotonically increasing version of the store's current
// snapshot: every committed Insert/Delete batch (and every Compact)
// publishes a new epoch. An execution pins the epoch current at its start.
func (s *Store) Epoch() uint64 {
	return s.eng.Data().Epoch
}

// OnCommit registers f to observe every committed batch: f receives the new
// snapshot epoch and the batch's delta footprint — an over-approximation of
// the label/predicate IDs it touched (empty for representation-only changes
// like Compact). Callbacks run under the store's writer lock, so they are
// delivered serially in epoch order and must be fast and non-blocking.
// OnCommit returns the epoch current at registration; batches at later
// epochs are guaranteed to be delivered.
func (s *Store) OnCommit(f func(epoch uint64, delta *cache.Footprint)) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commit = append(s.commit, f)
	return s.eng.Data().Epoch
}

// notifyCommitLocked delivers a committed batch to the OnCommit observers.
// Caller holds s.mu.
func (s *Store) notifyCommitLocked(epoch uint64) {
	if len(s.commit) == 0 {
		return
	}
	delta := s.mut.LastFootprint()
	for _, f := range s.commit {
		f(epoch, delta)
	}
}

// Triples returns the net set of triples currently stored, in a canonical
// deterministic order independent of insertion history.
func (s *Store) Triples() []Triple {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mut.Triples()
}

// Open reads N-Triples from r and builds a store.
func Open(r io.Reader, opts *Options) (*Store, error) {
	triples, err := rdf.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("turbohom: %w", err)
	}
	return New(triples, opts), nil
}

// OpenFile reads an N-Triples file and builds a store.
func OpenFile(path string, opts *Options) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Open(f, opts)
}

// Prepared is a SPARQL query parsed and planned once against a Store.
// Preparation pays the front-end cost (parsing, UNION expansion, plan
// compilation against the store's dictionaries) a single time; the prepared
// query is immutable and safe for concurrent use, so one Prepared can serve
// many goroutines executing Select/All/Count simultaneously.
type Prepared struct {
	s  *Store
	pq *engine.PreparedQuery
}

// Prepare parses and plans a SPARQL SELECT query for repeated execution:
// basic graph patterns with FILTER, OPTIONAL, UNION, DISTINCT, ORDER BY,
// LIMIT and OFFSET, and variables in any triple position including the
// predicate.
func (s *Store) Prepare(query string) (*Prepared, error) {
	pq, err := s.eng.Prepare(query)
	if err != nil {
		return nil, err
	}
	return &Prepared{s: s, pq: pq}, nil
}

// Vars returns the projection, in SELECT order. The slice is shared; do not
// modify it.
func (p *Prepared) Vars() []string { return p.pq.Vars() }

// CacheKey identifies the query's result set across textual variations: the
// canonical rendering of the parsed query plus the engine's options
// fingerprint. Two prepared queries with equal keys produce byte-identical
// result streams against the same snapshot — the key the server's result
// cache stores entries under.
func (p *Prepared) CacheKey() string { return p.pq.CacheKey() }

// Ask reports whether the prepared query is an ASK form. An ASK query is
// answered by whether its cursor yields at least one row — Vars is empty and
// the parser pins LIMIT 1, so draining the cursor stops at the first
// solution.
func (p *Prepared) Ask() bool { return p.pq.Ask() }

// Select starts executing the prepared query and returns a streaming
// cursor: a pull over the same row sequence All yields, so both return the
// same rows in the same order. Rows flow from the matcher as the consumer
// pulls them; closing the cursor (or cancelling ctx) after k rows abandons
// the remaining search instead of completing it. A query whose start
// vertex has one candidate region runs sequentially on the caller's
// goroutine at any Workers. With two or more, on a store with Workers > 1
// (the default), matching runs on the ordered parallel region pipeline:
// workers search candidate regions through resumable cursors, buffering no
// more than Options.StreamBuffer rows ahead of the consumer, and rows are
// emitted in the exact sequential order — the row sequence is
// byte-identical for every worker count. Either way a region with an
// enormous result set streams its first rows promptly, in bounded memory.
// ORDER BY must see
// every solution before the first row leaves, but no longer materializes
// the result set to sort it: ORDER BY with LIMIT k keeps only the best
// k+offset rows in a bounded heap (O(k) result memory), and unbounded
// ORDER BY sorts bounded runs and merges them on emission. Everything
// else — including DISTINCT, which deduplicates incrementally — streams.
func (p *Prepared) Select(ctx context.Context) *Rows {
	return &Rows{r: p.pq.Select(ctx)}
}

// SelectProfiled is Select with matcher effort counters: prof, when
// non-nil, accumulates the counters of the streamed run (regions visited,
// search nodes expanded, candidates explored). Read prof only after the
// cursor is exhausted or closed. A cursor cut short — Close, a context
// cancellation, a disconnected network client — reports the effort actually
// spent, which is how callers (and tests) prove that abandoning a cursor
// really abandoned the remaining search.
func (p *Prepared) SelectProfiled(ctx context.Context, prof *ProfileResult) *Rows {
	return &Rows{r: p.pq.SelectProfiled(ctx, prof)}
}

// All executes the prepared query and returns a range-over-func iterator of
// its rows: a non-nil error (context cancellation or execution failure) is
// yielded as the final pair with a nil row. Breaking out of the loop
// terminates the search early. It is the row sequence Select's cursor
// pulls, pushed instead: the matcher calls the loop body directly in the
// consumer's goroutine, with no cursor state in between.
//
//	for row, err := range p.All(ctx) {
//	    if err != nil { ... }
//	    use(row)
//	}
func (p *Prepared) All(ctx context.Context) iter.Seq2[[]Term, error] {
	return p.pq.All(ctx)
}

// Exec executes the prepared query and materializes the full result set.
func (p *Prepared) Exec(ctx context.Context) (*Results, error) {
	res, err := p.pq.Exec(ctx)
	if err != nil {
		return nil, err
	}
	return &Results{Vars: res.Vars, Rows: res.Rows}, nil
}

// Count executes the prepared query and returns only its solution count,
// skipping row materialization entirely when the query shape allows — the
// measurement mode of the paper's experiments.
func (p *Prepared) Count(ctx context.Context) (int, error) {
	return p.pq.Count(ctx)
}

// Explain executes the prepared query sequentially and returns a
// human-readable report of how the matcher ran it: the chosen matching
// order per pattern component (statistics cost model or the paper's
// population heuristic, per Options.CostOrder), the estimated row counts
// at each order position, and the filter effort counters — search nodes,
// candidate regions, and the neighborhood signature's checked/killed
// rates. It pays for a full execution of every component.
func (p *Prepared) Explain(ctx context.Context) (string, error) {
	ex, err := p.pq.Explain(ctx)
	if err != nil {
		return "", err
	}
	return ex.String(), nil
}

// Rows is a streaming result cursor in the style of database/sql: call Next
// until it returns false, read the current row with Row or Scan, then check
// Err. Always Close a cursor you do not drain — Close releases the
// executing query and is idempotent. A Rows must not be shared between
// goroutines; run Select once per goroutine instead.
type Rows struct {
	r *engine.Rows
}

// Vars returns the projection, in SELECT order. The slice is shared; do not
// modify it.
func (r *Rows) Vars() []string { return r.r.Vars() }

// Epoch returns the store epoch of the snapshot this cursor enumerates,
// pinned when the cursor was opened.
func (r *Rows) Epoch() uint64 { return r.r.Epoch() }

// Footprint returns an over-approximation of the label/predicate IDs the
// query reads: a committed batch whose delta footprint is disjoint cannot
// change this cursor's result set. The value is shared and must not be
// mutated.
func (r *Rows) Footprint() *cache.Footprint { return r.r.Footprint() }

// Next advances to the next row, blocking until one is available. It
// returns false when the rows are exhausted, the cursor is closed, the
// context is cancelled, or execution fails — check Err to tell the cases
// apart.
func (r *Rows) Next() bool { return r.r.Next() }

// Row returns the current row: one term per projected variable, in Vars
// order. Unbound positions (OPTIONAL variables without a match) hold the
// empty Term. The slice is owned by the caller and remains valid after the
// next call to Next.
func (r *Rows) Row() []Term { return r.r.Row() }

// Scan copies the current row into dest, one pointer per projected
// variable.
func (r *Rows) Scan(dest ...*Term) error { return r.r.Scan(dest...) }

// Err returns the error that terminated iteration: a context cancellation
// or deadline, or an execution failure. It returns nil while rows are still
// pending, after a clean exhaustion (even one that completed just before the
// context expired), and after a Close that cut short a healthy iteration; an
// execution failure persists through Close.
func (r *Rows) Err() error { return r.r.Err() }

// Close stops execution early — the matcher abandons its remaining
// candidate regions — and releases the cursor. It returns Err.
func (r *Rows) Close() error { return r.r.Close() }

// Select is Prepare followed by Prepared.Select, for one-shot streaming
// queries.
func (s *Store) Select(ctx context.Context, query string) (*Rows, error) {
	p, err := s.Prepare(query)
	if err != nil {
		return nil, err
	}
	return p.Select(ctx), nil
}

// Results is a materialized SPARQL result set. Unbound positions (OPTIONAL
// variables without a match) hold the empty Term.
type Results struct {
	// Vars is the projection, in SELECT order.
	Vars []string
	// Rows holds one term per variable per solution.
	Rows [][]Term
}

// Len reports the number of solutions.
func (r *Results) Len() int { return len(r.Rows) }

// Query runs a SPARQL SELECT query and materializes every row. It is a
// compatibility wrapper over Prepare + Exec; prefer Prepare for repeated
// execution and Select for streaming consumption.
func (s *Store) Query(query string) (*Results, error) {
	p, err := s.Prepare(query)
	if err != nil {
		return nil, err
	}
	return p.Exec(context.Background())
}

// Count runs a query and returns only its solution count. It is a
// compatibility wrapper over Prepare + Prepared.Count.
func (s *Store) Count(query string) (int, error) {
	p, err := s.Prepare(query)
	if err != nil {
		return 0, err
	}
	return p.Count(context.Background())
}

// Stats summarizes the transformed dataset.
type Stats struct {
	// Triples is the net number of distinct triples currently stored.
	Triples int
	// Vertices and Edges describe the transformed labeled graph; under the
	// type-aware transformation, type triples are folded into labels and do
	// not appear as edges.
	Vertices, Edges int
	// Transformation names the transformation in effect.
	Transformation string
}

// Stats reports the store's size statistics, as of the current snapshot.
func (s *Store) Stats() Stats {
	d := s.eng.Data()
	return Stats{
		Triples:        d.Triples,
		Vertices:       d.G.NumVertices(),
		Edges:          d.G.NumEdges(),
		Transformation: d.Mode.String(),
	}
}
