package core

import (
	"sync"
	"sync/atomic"
)

// This file implements the ordered parallel region pipeline: the paper's
// §5.2 dynamic distribution, lifted from materialized fan-out to streaming.
// W workers claim small contiguous batches of candidate regions from one
// shared counter and search each region through a regionCursor, delivering
// solutions in bounded row *segments* instead of whole-batch buffers. Each
// batch owns one channel of segments, announced on the ring in batch order;
// the calling goroutine — the emitter — replays the batches in sequence, so
// every sequential contract survives parallelism unchanged: rows arrive in
// the sequential enumeration order, and a visitor returning false stops the
// run at the same row it would stop a sequential one.
//
// Backpressure is per row. A segment holds at most quota rows (derived from
// Opts.StreamBuffer, which counts rows in flight); a worker that fills a
// segment hands it to the batch's channel and, when the channel is full,
// blocks with its region search *suspended in the cursor* — a pathological
// region that yields a hundred thousand rows therefore never buffers more
// than ~2 segments of them, and the first rows reach the consumer after
// O(quota) search work, not after the region is exhausted. A second, coarser
// bound is a token semaphore that keeps at most `window` batches in flight
// ahead of the emitter, so an early-terminated run abandons everything
// beyond the window.

// maxPipelineChunk caps the candidate-region batch size: batches amortize
// scheduling, and the cap bounds how much work one token pins.
const maxPipelineChunk = 64

// segment is one bounded slice of a batch's solution stream.
type segment struct {
	sols  []Match // solutions in sequential order, deep copies (nil when counting)
	count int     // solutions found (the NEC bulk count may exceed len(sols)==0 rows)
	err   error   // context error that cut the batch short
}

// pipeState is the shared coordination state of one pipeline run.
type pipeState struct {
	m          *matcher
	cands      []uint32
	start      int
	chunk      int
	numBatches int
	collect    bool
	quota      int // max rows per segment
	sharedPlan *searchPlan
	skipBefore int

	cursor atomic.Int64        // next unclaimed batch
	stop   atomic.Bool         // emitter finished; abandon unclaimed work
	done   chan struct{}       // closed with stop, releases blocked workers
	tokens chan struct{}       // batch-window semaphore
	ring   []chan chan segment // batch bi's segment channel arrives at ring[bi%window]

	profMu sync.Mutex
	prof   *ProfileResult
}

// pipelineQuota derives the per-segment row cap from the StreamBuffer row
// budget: the window may hold one delivered segment per in-flight batch plus
// one in production, so quota ≈ StreamBuffer/window keeps rows in flight
// within a small constant factor of StreamBuffer.
func pipelineQuota(streamBuffer, window, workers int) int {
	if streamBuffer <= 0 {
		streamBuffer = 64 * workers
	}
	q := streamBuffer / window
	if q < 1 {
		q = 1
	}
	return q
}

// runPipeline searches the candidate regions cands of start with
// opts.Workers parallel workers while delivering solutions to visit in
// exactly the sequential enumeration order. The rows visit receives are
// owned deep copies. With a nil visitor it is a parallel count: per-segment
// totals are summed into the total a sequential count returns.
func (m *matcher) runPipeline(start int, cands []uint32, visit Visitor) (int, error) {
	m.buildQueryTree(start)
	m.profileHeader(start, len(cands))
	defer m.foldSigCounters()

	// Dynamic distribution (paper §5.2): small contiguous chunks claimed
	// from a shared counter.
	workers := m.opts.Workers
	chunk := len(cands)/(workers*8) + 1
	if chunk > maxPipelineChunk {
		chunk = maxPipelineChunk
	}
	numBatches := (len(cands) + chunk - 1) / chunk
	window := 2 * workers
	if window > numBatches {
		window = numBatches
	}
	// The quota follows the configured worker count, so StreamBuffer keeps
	// its meaning however few batches the run turns out to have.
	quota := pipelineQuota(m.opts.StreamBuffer, window, workers)

	// +REUSE pins every region to the matching order of the first region
	// that survives exploration — the first in SEQUENTIAL order, because the
	// emitted row order depends on the plan. The pre-pass stops at that
	// region and hands the failures before it to the workers as known
	// skips, so total exploration work stays within one region of the
	// sequential run.
	var sharedPlan *searchPlan
	skipBefore := 0
	if m.opts.ReuseOrder {
		rg := newRegion(len(m.q.Vertices))
		for i, vs := range cands {
			if err := m.ctx.Err(); err != nil {
				return 0, err
			}
			rg.reset(vs)
			ckBase, klBase := m.sigChecked.Load(), m.sigKilled.Load()
			if m.explore(rg, start, vs) {
				// The surviving region is explored again by the worker that
				// claims it; drop this exploration's signature counts so the
				// run total matches a sequential run exactly. (The failed
				// explorations before it stay counted: workers skip those
				// regions, while a sequential run pays for them once — here.)
				m.sigChecked.Add(ckBase - m.sigChecked.Load())
				m.sigKilled.Add(klBase - m.sigKilled.Load())
				sharedPlan = m.buildPlan(rg)
				skipBefore = i
				break
			}
			skipBefore = i + 1
		}
	}

	ps := &pipeState{
		m:          m,
		cands:      cands,
		start:      start,
		chunk:      chunk,
		numBatches: numBatches,
		collect:    visit != nil,
		quota:      quota,
		sharedPlan: sharedPlan,
		skipBefore: skipBefore,
		done:       make(chan struct{}),
		tokens:     make(chan struct{}, window),
		ring:       make([]chan chan segment, window),
		prof:       m.opts.Profile,
	}
	for i := range ps.ring {
		ps.ring[i] = make(chan chan segment, 1)
		ps.tokens <- struct{}{}
	}

	// A worker beyond the batch count would find nothing to claim.
	if workers > numBatches {
		workers = numBatches
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps.worker()
		}()
	}
	workersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(workersDone)
	}()

	const maxInt = int(^uint(0) >> 1)
	emitted := 0
	var err error
emit:
	for bi := 0; bi < numBatches; bi++ {
		var segs chan segment
		select {
		case segs = <-ps.ring[bi%window]:
		case <-workersDone:
			// All workers exited before announcing this batch — the context
			// was cancelled before it was claimed. The non-blocking re-check
			// covers the race where the announcement and the last exit landed
			// together.
			select {
			case segs = <-ps.ring[bi%window]:
			default:
				err = m.ctx.Err()
				break emit
			}
		}
		for seg := range segs {
			if visit == nil {
				// bulkCount saturates per segment; keep the sum saturating.
				if seg.count > maxInt-emitted {
					emitted = maxInt
				} else {
					emitted += seg.count
				}
			} else {
				for _, mt := range seg.sols {
					emitted++
					if !visit(mt) {
						break emit
					}
				}
			}
			if seg.err != nil {
				err = seg.err
				break emit
			}
		}
		// The batch is fully replayed: open the window one batch on.
		ps.tokens <- struct{}{}
	}
	ps.stop.Store(true)
	close(ps.done)
	// Wait for the workers so profile merging is complete and no goroutine
	// outlives the call (Close/cancel rely on this for prompt teardown).
	<-workersDone
	return emitted, err
}

// worker claims batches in order, one per window token, until none remain
// or the run stops.
func (ps *pipeState) worker() {
	w := ps.newWorker()
	if w.localProf != nil {
		defer func() {
			ps.profMu.Lock()
			ps.prof.merge(w.localProf)
			ps.profMu.Unlock()
		}()
	}
	for !ps.stop.Load() && ps.m.ctx.Err() == nil {
		select {
		case <-ps.tokens:
		case <-ps.done:
			return
		}
		bi := int(ps.cursor.Add(1)) - 1
		if bi >= ps.numBatches {
			return
		}
		lo := bi * ps.chunk
		hi := min(lo+ps.chunk, len(ps.cands))
		// The slot is guaranteed empty: batch bi is claimable only after
		// batch bi-window was fully replayed, which drained the slot.
		segs := make(chan segment, 1)
		ps.ring[bi%len(ps.ring)] <- segs
		w.runBatch(lo, hi, segs)
		if w.st.stopped {
			return
		}
	}
}

// pipeWorker is one worker's private execution state: a reusable search
// state and region, the resumable cursor, and the segment row buffer its
// visitor fills.
type pipeWorker struct {
	ps        *pipeState
	st        *searchState
	rg        *region
	rc        regionCursor
	buf       []Match
	localProf *ProfileResult
}

func (ps *pipeState) newWorker() *pipeWorker {
	m := ps.m
	w := &pipeWorker{ps: ps, rg: newRegion(len(m.q.Vertices))}
	if ps.prof != nil {
		w.localProf = new(ProfileResult)
	}
	var visit Visitor
	if ps.collect {
		visit = func(mt Match) bool {
			if ps.stop.Load() {
				return false
			}
			w.buf = append(w.buf, mt.Clone())
			return true
		}
	}
	w.st = newSearchState(m, visit)
	w.st.profile = w.localProf
	w.st.stop = &ps.stop
	return w
}

// runBatch searches the candidate regions [lo, hi) in order, delivering
// segments of at most quota rows into segs and suspending the region cursor
// on backpressure. segs is always closed on return.
func (w *pipeWorker) runBatch(lo, hi int, segs chan<- segment) {
	ps := w.ps
	m := ps.m
	st := w.st
	countBase := st.count
	plan := ps.sharedPlan
	for gi := lo; gi < hi && !st.stopped; gi++ {
		if gi < ps.skipBefore {
			continue // known explore failure (the +REUSE pre-pass)
		}
		vs := ps.cands[gi]
		w.rg.reset(vs)
		if !m.explore(w.rg, ps.start, vs) {
			continue
		}
		if w.localProf != nil {
			w.localProf.Regions++
			for _, total := range w.rg.totals {
				w.localProf.ExploredCandidates += total
			}
		}
		if plan == nil || !m.opts.ReuseOrder {
			plan = m.buildPlan(w.rg)
		}
		st.rg, st.plan = w.rg, plan
		w.rc.start(st)
		w.runRegion(segs)
	}
	// Final segment: leftover rows, the batch's count (counting mode), and
	// any context error that cut the search short.
	seg := segment{sols: w.buf, err: st.err}
	if !ps.collect {
		seg.count = st.count - countBase
	}
	w.buf = nil
	if len(seg.sols) > 0 || seg.count != 0 || seg.err != nil {
		select {
		case segs <- seg:
		case <-ps.done:
		}
	}
	close(segs)
}

// runRegion drives the worker's region cursor to completion, suspending on
// backpressure. On a mid-region abandonment (shutdown) the cursor is unwound.
func (w *pipeWorker) runRegion(segs chan<- segment) {
	ps := w.ps
	st := w.st
	// Collect mode resumes row by row for eager delivery; count mode runs
	// the region to its end in one call.
	quota := 0
	if ps.collect {
		quota = 1
	}
	for {
		done := w.rc.resume(quota)
		if ps.collect && len(w.buf) > 0 {
			// Eager per-row delivery: hand over whatever has accumulated
			// the moment the slot is free, so the emitter never waits for
			// a full segment; block only when the segment cap is hit —
			// that block is the per-row backpressure.
			if !w.flush(segs, false) && len(w.buf) >= ps.quota {
				if !w.flush(segs, true) {
					st.stopped = true
				}
			}
		}
		if done {
			return
		}
		if st.stopped {
			// The region is abandoned with the cursor suspended: unwind it
			// so the searchState carries no stale used[]/varBind[] bindings
			// into the worker's later batches.
			w.rc.abort()
			return
		}
	}
}

// flush tries to deliver the accumulated rows as one segment. Non-blocking
// unless block is set; reports whether the rows were handed off (false with
// block set means the run is shutting down).
func (w *pipeWorker) flush(segs chan<- segment, block bool) bool {
	seg := segment{sols: w.buf}
	if block {
		select {
		case segs <- seg:
			w.buf = nil
			return true
		case <-w.ps.done:
			return false
		}
	}
	select {
	case segs <- seg:
		w.buf = nil
		return true
	default:
		return false
	}
}
