package engine

import (
	"context"
	"errors"
	"fmt"
	"iter"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/rdf"
)

// Rows is a streaming cursor over a query's solutions, in the style of
// database/sql: call Next until it returns false, read the current row with
// Row or Scan, then check Err. Close releases the executing query early —
// the matcher abandons its remaining candidate regions instead of scanning
// them — and is safe to call at any point (always Close a cursor you do not
// drain). A Rows must not be used from multiple goroutines concurrently;
// run Select once per goroutine instead (PreparedQuery is concurrency-safe).
type Rows struct {
	vars  []string
	ctx   context.Context
	next  func() ([]rdf.Term, error, bool)
	stop  func()
	epoch uint64
	fp    *cache.Footprint

	cur  []rdf.Term
	err  error
	done bool // iteration ended: exhausted, failed, cancelled or closed
}

// Epoch returns the epoch of the dataset snapshot this cursor enumerates —
// pinned synchronously when the cursor was opened.
func (r *Rows) Epoch() uint64 { return r.epoch }

// Footprint returns an over-approximation of the label and predicate IDs the
// query reads from the pinned snapshot: a committed batch whose delta
// footprint is disjoint cannot change this cursor's result set. The value is
// shared and must not be mutated; it is nil when plan compilation failed.
func (r *Rows) Footprint() *cache.Footprint { return r.fp }

// Select starts executing the prepared query and returns a cursor over its
// rows: a pull over the same row sequence All yields. Execution advances
// only as the consumer pulls: a sequential matcher run (Workers = 1, or a
// start vertex with one candidate) runs in lockstep with Next, and a
// parallel one (Workers > 1, two or more candidates) runs the ordered
// region pipeline, which searches candidate regions through resumable
// cursors, buffering no more than StreamBuffer rows ahead of the consumer —
// even a single region with a huge result set streams its first rows after a
// bounded amount of search — so closing the cursor after k rows still does
// on the order of k rows' search work (plus the row window). Row order is
// identical for every worker count. ORDER BY with LIMIT holds only the best
// LIMIT+OFFSET rows (a bounded heap); unbounded ORDER BY holds sorted runs
// and merges them. Cancelling ctx (or its deadline expiring) aborts the
// query; Err then returns the context error.
func (pq *PreparedQuery) Select(ctx context.Context) *Rows {
	return pq.SelectProfiled(ctx, nil)
}

// SelectProfiled is Select with matcher effort counters: prof, when
// non-nil, accumulates the counters of the streamed matcher run. On a
// parallel engine (Workers > 1) the pipeline merges per-worker counters: a
// fully drained cursor reports the same totals as a sequential run, while a
// cursor closed early may report somewhat more effort than a sequential run
// would have spent — workers race ahead within the row window. Read
// prof only after the cursor is exhausted or closed.
//
// The dataset snapshot and its compiled plans are pinned synchronously,
// before SelectProfiled returns: a cursor opened before a store update
// enumerates exactly the pre-update solutions, however late it is drained
// and whatever updates or compactions land in the meantime.
func (pq *PreparedQuery) SelectProfiled(ctx context.Context, prof *core.ProfileResult) *Rows {
	if ctx == nil {
		ctx = context.Background()
	}
	d := pq.e.Data()
	r := &Rows{vars: pq.vars, ctx: ctx, epoch: d.Epoch}
	pe, err := pq.plansFor(d)
	if err != nil {
		r.err, r.done = err, true
		return r
	}
	r.fp = pe.fp
	r.next, r.stop = iter.Pull2(pq.rows(ctx, pe, prof))
	return r
}

// All executes the prepared query as a range-over-func iterator, yielding
// each projected row as the matcher finds it; plans are resolved against
// the snapshot current at the call when iteration starts. The pipeline is
// driven synchronously from the yield callback. Breaking out of the loop
// terminates the search; a context cancellation or execution failure is
// yielded as the final pair with a nil row.
func (pq *PreparedQuery) All(ctx context.Context) iter.Seq2[[]rdf.Term, error] {
	d := pq.e.Data()
	return func(yield func([]rdf.Term, error) bool) {
		pe, err := pq.plansFor(d)
		if err != nil {
			yield(nil, err)
			return
		}
		pq.rows(ctx, pe, nil)(yield)
	}
}

// rows is the one row sequence behind All and Select: the query's stream
// against the compiled plans pe, each projected row yielded as it is found
// and a terminating error yielded as the final pair with a nil row.
func (pq *PreparedQuery) rows(ctx context.Context, pe *planEntry, prof *core.ProfileResult) iter.Seq2[[]rdf.Term, error] {
	return func(yield func([]rdf.Term, error) bool) {
		if ctx == nil {
			ctx = context.Background()
		}
		stopped := false
		err := pq.stream(ctx, pe, prof, func(row []rdf.Term) bool {
			stopped = !yield(row, nil)
			return !stopped
		})
		if err != nil && !stopped {
			yield(nil, err)
		}
	}
}

// Vars returns the projection, in SELECT order. The slice is shared; do not
// modify it.
func (r *Rows) Vars() []string { return r.vars }

// Next advances to the next row, running the query until one is found. It
// returns false when the rows are exhausted, the cursor is closed, the
// context is cancelled, or execution fails — check Err to tell the cases
// apart. A row found after the context was cancelled is not returned:
// iteration ends with the context error instead.
func (r *Rows) Next() bool {
	if r.done {
		return false
	}
	row, err, ok := r.next()
	if ok && err == nil {
		err = r.ctx.Err()
	}
	if !ok || err != nil {
		r.err, r.done = err, true
		r.stop()
		return false
	}
	r.cur = row
	return true
}

// Row returns the current row: one term per projected variable, in Vars
// order, with unbound OPTIONAL positions holding the empty term. The slice
// is owned by the caller and remains valid after the next call to Next.
func (r *Rows) Row() []rdf.Term { return r.cur }

// Scan copies the current row into dest, one pointer per projected
// variable.
func (r *Rows) Scan(dest ...*rdf.Term) error {
	if r.cur == nil {
		return errors.New("engine: Scan called before a successful Next")
	}
	if len(dest) != len(r.cur) {
		return fmt.Errorf("engine: Scan wants %d destinations for %d columns", len(dest), len(r.cur))
	}
	for i := range dest {
		*dest[i] = r.cur[i]
	}
	return nil
}

// Err returns the error, if any, that terminated iteration: a context
// cancellation or deadline, or an execution failure. It returns nil while
// rows are still pending, after a clean exhaustion (even one that completed
// just before the context expired), and after a Close that cut short a
// healthy iteration; an execution failure persists through Close.
func (r *Rows) Err() error { return r.err }

// Close stops execution: the row sequence's visitor returns false, so the
// matcher abandons its remaining search and a parallel pipeline joins its
// workers before Close returns. It is idempotent. Close returns Err so
// `defer rows.Close()` and error-checked teardown compose.
func (r *Rows) Close() error {
	if !r.done {
		r.done = true
		r.stop()
	}
	return r.err
}
