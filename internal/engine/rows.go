package engine

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sync"

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
	vars   []string
	ch     chan []rdf.Term
	cancel context.CancelFunc
	epoch  uint64
	fp     *cache.Footprint

	cur    []rdf.Term
	err    error // written by the producer before it closes ch
	done   bool  // consumer observed the channel close
	closed bool  // Close was called

	closeOnce sync.Once
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
// rows. Execution advances only as the consumer pulls: on a sequential
// engine the matcher runs in lockstep with Next, and on a parallel engine
// (Workers > 1) the ordered region pipeline searches candidate regions
// through resumable cursors, buffering no more than StreamBuffer rows
// ahead of the consumer — even a single region with a huge result set
// streams its first rows after a bounded amount of search — so closing
// the cursor after k rows still does on the order of k rows' search work
// (plus the row window). Row order is identical for every worker count.
// ORDER BY with LIMIT holds only the best LIMIT+OFFSET rows (a bounded
// heap); unbounded ORDER BY holds sorted runs and merges them. Cancelling
// ctx (or its deadline expiring) aborts the query; Err then returns the
// context error.
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
// The dataset snapshot is pinned synchronously, before SelectProfiled
// returns: a cursor opened before a store update enumerates exactly the
// pre-update solutions, however late it is drained and whatever updates or
// compactions land in the meantime.
func (pq *PreparedQuery) SelectProfiled(ctx context.Context, prof *core.ProfileResult) *Rows {
	if ctx == nil {
		ctx = context.Background()
	}
	d := pq.e.Data()
	cctx, cancel := context.WithCancel(ctx)
	r := &Rows{
		vars:   pq.vars,
		ch:     make(chan []rdf.Term),
		cancel: cancel,
		epoch:  d.Epoch,
	}
	// Acquire (and thereby pin) the snapshot's compiled plans synchronously
	// too: the pin lives until the producer goroutine exits, so a prepared
	// query's plan cache drops a superseded epoch only once every cursor
	// over it has closed.
	pe, err := pq.acquirePlans(d)
	if err != nil {
		cancel()
		r.err = err
		r.done = true
		close(r.ch)
		return r
	}
	r.fp = pe.fp
	go func() {
		truncated := false // emit aborted by cancellation (vs clean completion)
		err := pq.streamWith(cctx, pe, prof, func(row []rdf.Term) bool {
			select {
			case r.ch <- row:
				return true
			case <-cctx.Done():
				truncated = true
				return false
			}
		})
		if err != nil && errors.Is(err, context.Canceled) && ctx.Err() == nil {
			err = nil // cancellation came from Close, not from the caller
		}
		if err == nil && truncated {
			// Promote the caller's context error only when the stream was
			// actually cut short: a result set that completed just before a
			// deadline expired is a success, not a failure.
			err = ctx.Err()
		}
		// Unpin before closing the channel: a consumer returning from Close
		// (which waits for the close) may immediately assert that superseded
		// plan epochs are gone.
		pq.releasePlans(pe)
		r.err = err
		close(r.ch)
	}()
	return r
}

// All executes the prepared query as a range-over-func iterator, yielding
// each projected row as the matcher finds it. Unlike Select there is no
// producer goroutine: the pipeline is driven synchronously from the yield
// callback, so per-row overhead is a function call, not a channel handoff.
// Breaking out of the loop terminates the search; a context cancellation or
// execution failure is yielded as the final pair with a nil row.
func (pq *PreparedQuery) All(ctx context.Context) iter.Seq2[[]rdf.Term, error] {
	d := pq.e.Data()
	return func(yield func([]rdf.Term, error) bool) {
		if ctx == nil {
			ctx = context.Background()
		}
		stopped := false
		err := pq.stream(ctx, d, nil, func(row []rdf.Term) bool {
			if !yield(row, nil) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil && !stopped {
			yield(nil, err)
		}
	}
}

// Vars returns the projection, in SELECT order. The slice is shared; do not
// modify it.
func (r *Rows) Vars() []string { return r.vars }

// Next advances to the next row, blocking until one is available. It
// returns false when the rows are exhausted, the cursor is closed, the
// context is cancelled, or execution fails — check Err to tell the cases
// apart.
func (r *Rows) Next() bool {
	if r.done || r.closed {
		return false
	}
	row, ok := <-r.ch
	if !ok {
		r.done = true
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
// rows are still pending, after a clean exhaustion, and after a Close that
// cut short a healthy iteration; an execution failure persists through
// Close.
func (r *Rows) Err() error {
	if !r.done {
		return nil
	}
	return r.err
}

// Close stops execution and releases the producing goroutine. It is
// idempotent. Close returns Err so `defer rows.Close()` and error-checked
// teardown compose.
func (r *Rows) Close() error {
	r.closeOnce.Do(func() {
		r.closed = true
		r.cancel()
		for range r.ch { // release the producer, wait for its exit
		}
		r.done = true
	})
	return r.Err()
}
