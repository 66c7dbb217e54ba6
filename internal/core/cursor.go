package core

import (
	"context"

	"repro/internal/graph"
)

// This file is SubgraphSearch (paper §2, Algorithm 1). regionCursor
// enumerates the solutions of one candidate region as an explicit stack of
// loop frames, so the enumeration can be suspended after any emitted row and
// resumed later — by the same goroutine or, state in hand, by another
// scheduler entirely. Cursor wraps it into a whole-run enumeration (regions
// in sequential order) with the same resumability. Every sequential entry
// point (Stream, Collect and Count at Workers <= 1, Profile, Explain) drives
// a Cursor to exhaustion; the parallel pipeline schedules regionCursors.
// Each frame kind is one loop of the paper's search:
//
//	cfSearch — the loop over the candidates of the query vertex at one
//	           matching-order position: the region's CR(u, M(parent)),
//	           narrowed by IsJoinable (one k-way intersection under +INT,
//	           per-candidate membership tests otherwise), by injectivity
//	           under isomorphism, and by the vertex's self-loops;
//	cfWild   — the loop over the data edge labels that can bind one
//	           wildcard query edge (the e-graph homomorphism's Me mapping,
//	           Def. 2), respecting shared predicate variables;
//	cfExpand — the loop over the class candidates for one member of one
//	           NEC equivalence class during combination expansion.
//
// A position held by an NEC representative pushes no frame: its candidates
// are filtered and snapshotted when the position is entered and the search
// descends exactly once, so there is nothing to iterate when the subtree
// returns.
//
// Oracles. No other code in the package enumerates matches, so the search is
// checked against code that shares nothing with it: the tests' brute-force
// enumerator, which tries every assignment of query vertices to data
// vertices and checks Def. 1 / Def. 2 literally, fixes the row multiset, and
// TestSequentialGolden fixes the row order and every ProfileResult counter
// to the values recorded from the recursive search this machine replaced.
//
// Suspend/resume invariants. All search state lives in the searchState
// arrays (mapping, edgeBind, varBind, used, classCands, fullMap/fullEdges,
// the per-depth scratch buffers) plus the frame stack; nothing lives on the
// goroutine stack between resume calls. Each frame records the bindings it
// owns (bound/setVar/expSet) and undoes them when control re-enters it after
// the subtree beneath finished — so resuming continues exactly where the
// last emit happened. A suspended cursor holds live bindings in those
// arrays: abandoning a region mid-search is only safe through abort(), which
// unwinds the stack undoing every frame's effects, unless the searchState is
// discarded with the cursor. The (u, v) vertex binding is placed before the
// position's wildcard labels are enumerated rather than beneath them, which
// keeps the binding's undo in the cfSearch frame; nothing inside the
// wildcard loop reads mapping[u] or used[v].
type regionCursor struct {
	st    *searchState
	stack []cframe

	// until is the solution count at which the current resume call
	// suspends (maximal when it runs to exhaustion). step reads it to keep
	// a frame's loop going without returning to resume after every row.
	until int

	// NEC expansion accounting: one reduced solution expanded into f full
	// solutions adds f-1 to NECExpansionsSkipped. The expansion interleaves
	// with suspensions, so the solution count is recorded when the first
	// cfExpand frame is pushed and the difference folded in when the
	// expansion's frames have all popped (or the run stops mid-expansion).
	expActive   bool
	expBase     int
	expStackLen int
}

type cframeKind uint8

const (
	cfSearch cframeKind = iota
	cfWild
	cfExpand
)

// cframe is one suspended loop of the search.
type cframe struct {
	kind cframeKind

	// cfSearch, cfWild: matching-order position and its query vertex.
	dc int
	u  int

	// list is the frame's iteration space: candidate vertices (cfSearch),
	// edge labels (cfWild), or the class candidate snapshot (cfExpand).
	// i indexes the next element to try.
	list []uint32
	i    int

	// cfSearch: the data vertex currently bound to u (undone on re-entry).
	v     uint32
	bound bool

	// cfWild: the wildcard edge (edge = query edge index, wi = position in
	// plan.wild[dc]), the vertex being placed, the predicate-variable
	// binding observed on entry (NoID = unbound), and whether this frame
	// bound the variable for the current label.
	edge      int
	wi        int
	wv        uint32
	prevBound uint32
	setVar    bool

	// cfExpand: class and member being assigned, plus the currently
	// assigned data vertex (isomorphism only; undone on re-entry).
	ci, mi int
	expCur uint32
	expSet bool
}

// start (re)initializes the cursor for the region and plan currently set on
// st (st.rg, st.plan). The caller owns st's lifecycle; one searchState can
// serve many consecutive regions through the same cursor, as it does in
// Cursor and in every pipeline worker.
func (rc *regionCursor) start(st *searchState) {
	rc.st = st
	rc.stack = rc.stack[:0]
	rc.expActive = false
	rc.descend(0)
}

// resume advances the search until maxRows more solutions have been emitted
// (counted the way the run counts them, so an NEC bulk count may overshoot),
// the region is exhausted, or the search stops (visitor false, the
// pipeline's stop flag, cancellation). It reports whether the region is
// finished; false means the cursor is suspended and resume can be called
// again. maxRows <= 0 runs to exhaustion.
func (rc *regionCursor) resume(maxRows int) bool {
	st := rc.st
	base := st.count
	rc.until = int(^uint(0) >> 1)
	if maxRows > 0 {
		rc.until = base + maxRows
	}
	for len(rc.stack) > 0 {
		if st.stopped {
			rc.abort()
			return true
		}
		rc.step()
		if maxRows > 0 && st.count-base >= maxRows && len(rc.stack) > 0 {
			if st.stopped {
				continue // deliver the stop verdict, not a suspension
			}
			return false
		}
	}
	rc.finishExpansion()
	return true
}

// undo reverts the bindings this frame currently holds — the cfSearch
// vertex binding, the cfWild predicate-variable and edge-label bindings,
// the cfExpand member assignment. It is the single undo site, shared by
// step()'s re-entry and abort()'s unwind, so the two cannot drift: a new
// binding added to one frame kind is undone on both paths or neither.
func (f *cframe) undo(st *searchState) {
	switch f.kind {
	case cfSearch:
		if f.bound {
			if st.used != nil {
				st.used[f.v] = false
			}
			f.bound = false
		}
	case cfWild:
		if f.setVar {
			st.varBind[st.m.q.Edges[f.edge].PredVar] = NoID
			f.setVar = false
		}
		st.edgeBind[f.edge] = NoID
	case cfExpand:
		if f.expSet {
			st.used[f.expCur] = false
			f.expSet = false
		}
	}
}

// abort abandons a suspended region mid-search, unwinding the frame stack
// and undoing every binding the frames still hold, exactly as each frame's
// own re-entry would. After abort the searchState is clean for the next
// region: required whenever the state outlives the abandoned region, as in
// a pipeline worker whose region is cut short by shutdown; a worker that
// dropped a suspended cursor without unwinding would silently prune its
// later regions against stale used[]/varBind[] entries.
func (rc *regionCursor) abort() {
	st := rc.st
	for i := len(rc.stack) - 1; i >= 0; i-- {
		rc.stack[i].undo(st)
	}
	rc.stack = rc.stack[:0]
	rc.finishExpansion()
}

// step runs the top frame's loop until it pushes a frame, pops itself, or
// must hand control back to resume. A binding whose subtree pushed nothing —
// a dead end, or a solution emitted in place — continues the loop here
// rather than returning once per candidate. Frames are addressed by index,
// never by retained pointer across a push, because pushes may grow the
// stack's backing array.
func (rc *regionCursor) step() {
	st := rc.st
	top := len(rc.stack) - 1
	f := &rc.stack[top]
	f.undo(st)
	switch f.kind {
	case cfSearch:
		joins := st.loopJoins(f.dc)
		for f.i < len(f.list) {
			v := f.list[f.i]
			f.i++
			st.steps++
			if st.steps&2047 == 0 {
				if err := st.ctx.Err(); err != nil {
					st.err = err
					st.stopped = true
					return
				}
				if st.stop != nil && st.stop.Load() {
					st.stopped = true
					return
				}
			}
			if st.profile != nil {
				st.profile.SearchNodes++
			}
			if st.used != nil && st.used[v] {
				continue
			}
			if joins != nil && !st.checkConstJoins(f.u, v, joins) {
				continue
			}
			if !st.checkSelfLoops(v, st.plan.selfConst[f.dc]) {
				continue
			}
			// Bind u -> v and descend. The binding is undone when control
			// re-enters this frame.
			st.mapping[f.u] = v
			if st.used != nil {
				st.used[v] = true
			}
			f.v, f.bound = v, true
			dc, u := f.dc, f.u
			if len(st.plan.wild[dc]) == 0 {
				rc.descend(dc + 1)
			} else {
				rc.pushWild(dc, u, v, 0)
			}
			if !rc.inPlace(top) {
				return
			}
			f.undo(st)
		}
		rc.stack = rc.stack[:top]

	case cfWild:
		e := &st.m.q.Edges[f.edge]
		for f.i < len(f.list) {
			lbl := f.list[f.i]
			f.i++
			if f.prevBound != NoID && lbl != f.prevBound {
				continue
			}
			st.edgeBind[f.edge] = lbl
			if e.PredVar >= 0 && f.prevBound == NoID {
				st.varBind[e.PredVar] = lbl
				f.setVar = true
			}
			dc, u, v, wi := f.dc, f.u, f.wv, f.wi
			rc.pushWild(dc, u, v, wi+1)
			if !rc.inPlace(top) {
				return
			}
			f.undo(st)
		}
		rc.stack = rc.stack[:top]

	case cfExpand:
		members := st.m.red.classes[f.ci].members
		for f.i < len(f.list) {
			v := f.list[f.i]
			f.i++
			if st.used != nil {
				if st.used[v] {
					continue
				}
				st.used[v] = true
				f.expCur, f.expSet = v, true
			}
			st.fullMap[members[f.mi]] = v
			ci, mi := f.ci, f.mi
			rc.pushExpand(ci, mi+1)
			if !rc.inPlace(top) {
				return
			}
			f.undo(st)
		}
		rc.stack = rc.stack[:top]
		rc.maybeFinishExpansion()
	}
}

// inPlace reports whether the frame at index top may go on with its next
// iteration without returning to resume: the subtree of its current binding
// pushed no frame (so the frame is still on top, at an unmoved address), the
// run has not stopped, and the row budget is not spent. Otherwise the frame
// keeps its binding, exactly as after a descent.
func (rc *regionCursor) inPlace(top int) bool {
	st := rc.st
	return len(rc.stack) == top+1 && !st.stopped && st.count < rc.until
}

// descend enters matching-order position dc, or emits a solution when the
// order is complete.
func (rc *regionCursor) descend(dc int) {
	st := rc.st
	if dc == len(st.plan.order) {
		rc.emit()
		return
	}
	rc.pushSearch(dc)
}

// pushSearch prepares position dc: candidate lookup, the +INT
// intersection, and the deferred-NEC snapshot (which descends without a
// frame).
func (rc *regionCursor) pushSearch(dc int) {
	st := rc.st
	plan := st.plan
	u := plan.order[dc]

	var cands []uint32
	if dc == 0 {
		st.rootBuf[0] = st.rg.root
		cands = st.rootBuf[:]
	} else {
		cands = st.rg.cand[rkey(u, st.mapping[st.m.parent[u]])]
	}

	if joins := plan.constJoins[dc]; st.m.opts.Intersect && len(joins) > 0 {
		cands = st.intersectJoins(dc, u, cands, joins)
	}

	if st.m.red != nil {
		if ci := st.m.red.classOf[u]; ci >= 0 {
			rc.pushNEC(dc, u, ci, cands, st.loopJoins(dc))
			return
		}
	}

	if len(cands) == 0 {
		return // nothing to iterate: the frame would pop at once
	}
	rc.stack = append(rc.stack, cframe{kind: cfSearch, dc: dc, u: u, list: cands})
}

// loopJoins returns the constant non-tree edges that position dc tests per
// candidate (IsJoinable by membership): none under +INT, whose intersection
// already applied them when the position was entered.
func (st *searchState) loopJoins(dc int) []int {
	if st.m.opts.Intersect {
		return nil
	}
	return st.plan.constJoins[dc]
}

// pushNEC handles the position of a deferred NEC representative. All of the
// class's constraints resolve at or before this position (its single
// neighbor is its query-tree parent; parallel edges to the parent are
// non-tree edges scheduled here; wildcard edges and self-loops are excluded
// by construction), so instead of binding the representative once per
// candidate, the surviving candidate set is snapshotted and the search
// descends exactly once — no frame, because there is nothing to iterate at
// this position when the subtree returns. emit later expands every class by
// combination: the NEC reduction's whole point, a class of k members costs
// one search subtree instead of |C|^k.
func (rc *regionCursor) pushNEC(dc, u, ci int, cands []uint32, constJoins []int) {
	st := rc.st
	buf := st.candBuf[dc][:0]
	for _, v := range cands {
		st.steps++
		if st.steps&2047 == 0 {
			if err := st.ctx.Err(); err != nil {
				st.err = err
				st.stopped = true
				return
			}
			if st.stop != nil && st.stop.Load() {
				st.stopped = true
				return
			}
		}
		if st.profile != nil {
			st.profile.SearchNodes++
		}
		// A data vertex bound by an ancestor stays bound through every emit
		// under this subtree, so it can never be assigned to a member
		// (isomorphism); filtering here tightens the |S| >= k prune.
		if st.used != nil && st.used[v] {
			continue
		}
		if constJoins != nil && !st.checkConstJoins(u, v, constJoins) {
			continue
		}
		buf = append(buf, v)
	}
	st.candBuf[dc] = buf
	k := st.m.red.classSize[u]
	if len(buf) == 0 || (st.used != nil && len(buf) < k) {
		return
	}
	st.classCands[ci] = buf
	rc.descend(dc + 1)
}

// pushWild enters wildcard edge wi of position dc for the candidate binding
// u -> v, or descends past the position when every wildcard edge is bound.
func (rc *regionCursor) pushWild(dc, u int, v uint32, wi int) {
	st := rc.st
	edges := st.plan.wild[dc]
	if wi == len(edges) {
		rc.descend(dc + 1)
		return
	}
	m := st.m
	ei := edges[wi]
	e := &m.q.Edges[ei]
	vf, vt := v, v
	if e.From != u {
		vf = st.mapping[e.From]
	}
	if e.To != u {
		vt = st.mapping[e.To]
	}
	st.lblBuf = m.g.EdgeLabelsBetween(st.lblBuf[:0], vf, vt)
	if len(st.lblBuf) == 0 {
		return // dead end; edgeBind[ei] keeps its prior value
	}
	bound := NoID
	if e.PredVar >= 0 {
		bound = st.varBind[e.PredVar]
	}
	// The frame outlives this call (and any suspension), so it owns a copy
	// of the label list: lblBuf is reused by the frames pushed beneath it.
	labels := append([]uint32(nil), st.lblBuf...)
	rc.stack = append(rc.stack, cframe{
		kind: cfWild, dc: dc, u: u, wv: v,
		edge: ei, wi: wi, list: labels, prevBound: bound,
	})
}

// pushExpand assigns member mi of NEC class ci (and onward), emitting the
// fully-expanded match when every class is assigned.
func (rc *regionCursor) pushExpand(ci, mi int) {
	st := rc.st
	red := st.m.red
	for ci < len(red.classes) && mi == len(red.classes[ci].members) {
		ci, mi = ci+1, 0
	}
	if ci == len(red.classes) {
		st.emitMatch(st.fullMap, st.fullEdges)
		return
	}
	rc.stack = append(rc.stack, cframe{kind: cfExpand, ci: ci, mi: mi, list: st.classCands[ci]})
}

// emit delivers the current solution: directly, or through NEC combination
// expansion into full original-query solutions. Under homomorphism class
// members bind independently over the class candidate set (Cartesian
// power); under isomorphism they bind injectively, avoiding every data
// vertex the rest of the mapping uses. The expansion runs as cfExpand
// frames, so a huge expansion suspends like any other subtree. With no
// visitor the homomorphism expansion is a pure product and is counted
// without enumeration.
func (rc *regionCursor) emit() {
	st := rc.st
	if st.m.red == nil {
		st.emitMatch(st.mapping, st.edgeBind)
		return
	}
	red := st.m.red

	if st.visit == nil && st.used == nil {
		// Count-only homomorphism: the expansion factor is the product of
		// |S_c|^k_c over all classes.
		total := 1
		for ci, cls := range red.classes {
			n := len(st.classCands[ci])
			for range cls.members {
				if n != 0 && total > int(^uint(0)>>1)/n {
					total = int(^uint(0) >> 1) // saturate instead of overflowing
					break
				}
				total *= n
			}
		}
		if st.profile != nil {
			st.profile.NECExpansionsSkipped += total - 1
		}
		st.bulkCount(total)
		return
	}

	for ov := range red.orig.Vertices {
		rv := red.vertexMap[ov]
		if red.classSize[rv] == 1 {
			st.fullMap[ov] = st.mapping[rv]
		}
	}
	for oe, re := range red.edgeMap {
		if re >= 0 {
			st.fullEdges[oe] = st.edgeBind[re]
		}
	}
	rc.expActive = true
	rc.expBase = st.count
	rc.expStackLen = len(rc.stack)
	rc.pushExpand(0, 0)
	rc.maybeFinishExpansion() // the expansion may complete without frames
}

// maybeFinishExpansion folds the expansion-skipped counter in once the
// expansion's frames have all popped.
func (rc *regionCursor) maybeFinishExpansion() {
	if rc.expActive && len(rc.stack) == rc.expStackLen {
		rc.finishExpansion()
	}
}

func (rc *regionCursor) finishExpansion() {
	if !rc.expActive {
		return
	}
	rc.expActive = false
	st := rc.st
	if st.profile != nil && st.count > rc.expBase {
		st.profile.NECExpansionsSkipped += st.count - rc.expBase - 1
	}
}

// Cursor is SubgraphSearch over a whole run: Algorithm 1's loop over the
// start vertex's candidate regions — explore each region, determine (or
// reuse) its matching order, search it — pausable after any emitted row.
// Driven to exhaustion by Resume(0) it is the sequential execution of
// Stream, Collect, Count, Profile and Explain. The matcher's context is
// checked between candidate regions and inside the search loops, so
// cancellation abandons the regions not yet explored. A suspended cursor
// plus its candidate range describes exactly the work left to do: the
// pipeline schedules the same machine one region at a time (suspended on
// backpressure), and it is the natural seam for distributed sharding.
//
// A Cursor is single-goroutine; it holds no locks and spawns nothing.
type Cursor struct {
	m     *matcher
	st    *searchState
	rg    *region
	rc    regionCursor
	cands []uint32
	start int
	next  int // next start-candidate index
	in    bool
	plan  *searchPlan // +REUSE shared plan (nil until first surviving region)
	point bool
	done  bool // set once, where the signature counters are folded in
}

// NewCursor validates the query and prepares a resumable enumeration of all
// matches of q in g. Rows are delivered to visit (which may stop the run by
// returning false) during Resume calls, in the sequential enumeration order;
// opts.Profile and the ctx-cancellation contract behave as in Stream.
// opts.Workers is ignored — a cursor is the sequential search; parallelism
// schedules many cursors.
func NewCursor(ctx context.Context, g graph.View, q *QueryGraph, sem Semantics, opts Opts, visit Visitor) (*Cursor, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return newMatcher(ctx, g, q, sem, opts).cursor(visit), nil
}

// cursor chooses the start vertex and prepares the matcher's whole-run
// enumeration.
func (m *matcher) cursor(visit Visitor) *Cursor {
	start, cands := m.startCandidates()
	return m.cursorFrom(start, cands, visit)
}

// cursorFrom prepares the whole-run enumeration over the start vertex's
// candidate list, which the caller has already materialized.
func (m *matcher) cursorFrom(start int, cands []uint32, visit Visitor) *Cursor {
	c := &Cursor{m: m, start: start, cands: cands}
	m.profileHeader(start, len(cands))
	if len(cands) == 0 {
		c.done = true
		m.foldSigCounters()
		return c
	}
	c.point = m.pointShaped()
	if !c.point {
		m.buildQueryTree(start)
		c.rg = newRegion(len(m.q.Vertices))
		// Room for one frame per position and per wildcard edge: the
		// deepest stack without an NEC expansion.
		c.rc.stack = make([]cframe, 0, len(m.q.Vertices)+len(m.q.Edges))
	}
	c.st = newSearchState(m, visit)
	c.st.profile = m.opts.Profile
	return c
}

// Resume advances the enumeration until maxRows more rows have been emitted
// (maxRows <= 0 means: until exhaustion), then suspends. It returns the
// number of rows emitted by this call and whether the enumeration is
// complete. After done is reported true (or an error is returned), further
// calls return (0, true, err) idempotently.
func (c *Cursor) Resume(maxRows int) (int, bool, error) {
	if c.done {
		return 0, true, c.err()
	}
	st := c.st
	before := st.count

	if c.point {
		c.resumePoint(maxRows, before)
		if c.done {
			c.m.foldSigCounters()
		}
		return st.count - before, c.done, c.err()
	}

	for {
		if st.stopped {
			c.done = true
			break
		}
		if c.in {
			b := 0 // rows left for this call; 0 = unlimited
			if maxRows > 0 {
				if b = maxRows - (st.count - before); b <= 0 {
					return st.count - before, false, nil
				}
			}
			if !c.rc.resume(b) {
				return st.count - before, false, nil
			}
			c.in = false
			continue
		}
		if c.next >= len(c.cands) {
			c.done = true
			break
		}
		if err := c.m.ctx.Err(); err != nil {
			st.err = err
			c.done = true
			break
		}
		vs := c.cands[c.next]
		c.next++
		c.rg.reset(vs)
		if !c.m.explore(c.rg, c.start, vs) {
			continue
		}
		if st.profile != nil {
			st.profile.Regions++
			for _, total := range c.rg.totals {
				st.profile.ExploredCandidates += total
			}
		}
		if c.plan == nil || !c.m.opts.ReuseOrder {
			c.plan = c.m.buildPlan(c.rg)
			if c.m.onPlan != nil {
				c.m.onPlan(c.rg, c.plan)
			}
		}
		st.rg, st.plan = c.rg, c.plan
		c.rc.start(st)
		c.in = true
	}
	c.m.foldSigCounters()
	return st.count - before, true, c.err()
}

// resumePoint enumerates a point-shaped query (Algorithm 1 lines 1-4): a
// single vertex with no edges needs no region machinery — every filtered
// candidate is a solution. This is the case the type-aware transformation
// creates for class-scan queries like LUBM Q6/Q14. Such a query has no NEC
// reduction, so each candidate is emitted as it stands.
func (c *Cursor) resumePoint(maxRows, before int) {
	st := c.st
	pr := st.profile
	for c.next < len(c.cands) {
		if st.stopped {
			c.done = true
			return
		}
		if maxRows > 0 && st.count-before >= maxRows {
			return
		}
		if c.next&1023 == 0 {
			if err := c.m.ctx.Err(); err != nil {
				st.err = err
				c.done = true
				return
			}
		}
		v := c.cands[c.next]
		c.next++
		if pr != nil {
			pr.Regions++
			pr.SearchNodes++
		}
		st.mapping[0] = v
		st.emitMatch(st.mapping, st.edgeBind)
	}
	c.done = true
}

func (c *Cursor) err() error {
	if c.st == nil {
		return nil
	}
	return c.st.err
}
