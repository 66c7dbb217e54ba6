package engine

import (
	"context"
	"strings"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/transform"
)

// RowVisitor consumes one projected solution row. Returning false stops
// execution; the matcher abandons its remaining candidate regions.
type RowVisitor func(row []rdf.Term) bool

// stream runs the prepared query against the compiled plans pe, pushing
// projected rows — after DISTINCT deduplication, OFFSET skipping, and LIMIT
// truncation — to emit in pipeline order. It is the one execution path
// behind Exec, Count's slow path, All and Select (the latter three through
// the row sequence rows): every group runs through streamGroup, so each row
// flows from the matcher's visitor callback to emit without accumulating a
// result set (DISTINCT keeps a seen-set but still emits incrementally), and
// stopping emit abandons the remaining search. ORDER BY does not buffer
// everything and then sort: `ORDER BY … LIMIT k` feeds a bounded top-k heap
// from the stream (O(k) result memory), and unbounded ORDER BY sorts
// bounded runs as rows arrive and merges them on emission; both must still
// see the full stream before the first row leaves, as the last solution
// could sort first. prof, when non-nil, accumulates the counters of each
// group's streamed matcher run (merged from the pipeline's workers when
// Workers > 1).
func (pq *PreparedQuery) stream(ctx context.Context, pe *planEntry, prof *core.ProfileResult, emit RowVisitor) error {
	plans := pe.plans
	pj := &projector{pq: pq, emit: emit, offset: pq.q.Offset, limit: pq.q.Limit}
	if pq.q.Distinct {
		pj.seen = map[string]bool{}
	}

	if cmp := sparql.RowComparator(pq.q.OrderBy, pq.vi.slot); cmp != nil {
		// Ordering runs on the unprojected solutions so keys may reference
		// non-projected variables. (A nil comparator — no key resolves to a
		// column — leaves the stream order untouched, so such queries take
		// the plain streaming path below.)
		return pq.streamOrdered(ctx, plans, prof, rowCmp(cmp), pj)
	}

	for i, g := range pq.groups {
		stopped := false
		err := pq.e.streamGroup(ctx, plans[i], g, pq.vi, prof, func(row []rdf.Term) bool {
			if !pj.push(row) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		if stopped {
			break
		}
	}
	return nil
}

// streamOrdered drains the groups' solution stream into an order-aware
// consumer and replays it sorted through the projector.
//
// With a LIMIT and no DISTINCT, only the best LIMIT+OFFSET rows can ever be
// emitted, so a bounded top-k heap suffices: memory is O(k) regardless of
// the solution count. DISTINCT disables the bound (rows that deduplicate
// away downstream must not consume heap slots), and an unbounded ORDER BY
// has no k — both fall back to sorted runs merged on emission, which holds
// every row but sorts incrementally and streams the merge.
func (pq *PreparedQuery) streamOrdered(ctx context.Context, plans []*plan, prof *core.ProfileResult, cmp rowCmp, pj *projector) error {
	var push func(row []rdf.Term)
	var finish func()
	if pq.q.Limit >= 0 && !pq.q.Distinct {
		h := newTopK(pq.q.Limit+pq.q.Offset, cmp)
		push = h.push
		finish = func() {
			for _, row := range h.sorted() {
				if !pj.push(row) {
					return
				}
			}
		}
	} else {
		rs := newRunSorter(cmp)
		push = rs.push
		finish = func() { rs.mergeEmit(pj.push) }
	}
	for i, g := range pq.groups {
		err := pq.e.streamGroup(ctx, plans[i], g, pq.vi, prof, func(row []rdf.Term) bool {
			push(row)
			return true
		})
		if err != nil {
			return err
		}
	}
	finish()
	return nil
}

// projector applies the solution-modifier tail of the pipeline: projection
// to the SELECT variables, DISTINCT, OFFSET, LIMIT. push reports whether the
// caller should keep producing rows.
type projector struct {
	pq      *PreparedQuery
	seen    map[string]bool // non-nil iff DISTINCT
	offset  int
	limit   int // -1 = unlimited
	emitted int
	emit    RowVisitor
}

func (pj *projector) push(row []rdf.Term) bool {
	vars, vi := pj.pq.vars, pj.pq.vi
	proj := make([]rdf.Term, len(vars))
	for i, v := range vars {
		if idx, ok := vi.index[v]; ok {
			proj[i] = row[idx]
		}
	}
	if pj.seen != nil {
		k := rowKey(proj)
		if pj.seen[k] {
			return true
		}
		pj.seen[k] = true
	}
	if pj.offset > 0 {
		pj.offset--
		return true
	}
	if pj.limit >= 0 && pj.emitted >= pj.limit {
		return false
	}
	if !pj.emit(proj) {
		return false
	}
	pj.emitted++
	return pj.limit < 0 || pj.emitted < pj.limit
}

func rowKey(row []rdf.Term) string {
	var b strings.Builder
	for _, t := range row {
		b.WriteString(string(t))
		b.WriteByte('\x00')
	}
	return b.String()
}

// streamGroup is the one evaluator of a flat group: it runs the group's
// plan depth first, pushing unprojected solution rows to emit. The first
// query-graph component streams straight from the matcher's visitor — in
// parallel but in sequential row order when Workers > 1 and its start
// vertex has two or more candidates, via the ordered region pipeline — and
// the remaining components are materialized once and
// cross-joined per streamed solution. Each joined row then passes through
// the variable-type expansions, the OPTIONAL left joins and the post
// filters before it is emitted. Top-level groups run with no outer
// bindings; an OPTIONAL sub-group runs once per enclosing row, with that
// row's bindings in p.outer (see execOptional).
func (e *Engine) streamGroup(ctx context.Context, p *plan, g *flatGroup, vi *varIndex, prof *core.ProfileResult, emit RowVisitor) error {
	if p.empty {
		return nil
	}
	d, outer := p.data, p.outer

	// Seed the row with the alternative's fixed bindings (wildcard-predicate
	// rdf:type expansion); conflicting fixes or an enclosing binding that
	// disagrees make the alternative empty.
	seed := make([]rdf.Term, len(vi.names))
	for _, fb := range g.fixed {
		if t := outer[fb.name]; t != "" && t != fb.term {
			return nil
		}
		slot := vi.slot(fb.name)
		if slot < 0 {
			continue
		}
		if seed[slot] != "" && seed[slot] != fb.term {
			return nil
		}
		seed[slot] = fb.term
	}

	// tail finishes one fully-joined row: variable-type expansions, OPTIONAL
	// left joins, post filters, then emit. It reports whether to continue.
	tail := func(row []rdf.Term) (bool, error) {
		rows := [][]rdf.Term{row}
		for _, exp := range p.typeExps {
			if rows = e.expandTypes(d, rows, exp, vi, outer); len(rows) == 0 {
				return true, nil
			}
		}
		for _, flats := range p.optFlats {
			var err error
			if rows, err = e.execOptional(ctx, d, flats, vi, rows, outer); err != nil {
				return false, err
			}
		}
		for _, r := range rows {
			if len(p.post) > 0 {
				b := e.rowBindings(r, vi, outer)
				keep := true
				for _, f := range p.post {
					if !sparql.EvalFilter(f, b) {
						keep = false
						break
					}
				}
				if !keep {
					continue
				}
			}
			if !emit(r) {
				return false, nil
			}
		}
		return true, nil
	}

	if len(p.comps) == 0 {
		_, err := tail(seed)
		return err
	}

	rest := make([][]core.Match, len(p.comps)-1)
	for i, c := range p.comps[1:] {
		sols, err := core.Collect(ctx, d.G, c.qg, e.sem, e.opts)
		if err != nil {
			return err
		}
		if len(sols) == 0 {
			return nil // inner join: any empty component empties the group
		}
		rest[i] = sols
	}

	opts := e.opts
	if prof != nil {
		opts.Profile = prof
	}
	var tailErr error
	_, err := core.Stream(ctx, d.G, p.comps[0].qg, e.sem, opts, func(mt core.Match) bool {
		row, ok := e.mergeSolution(d, seed, p.comps[0], mt, vi)
		if !ok {
			return true
		}
		cont, err := e.joinRest(d, p.comps[1:], rest, 0, row, vi, tail)
		if err != nil {
			tailErr = err
			return false
		}
		return cont
	})
	if tailErr != nil {
		return tailErr
	}
	return err
}

// joinRest cross-joins row against the materialized solutions of the given
// components (conflict detection handles predicate variables spanning
// components), invoking tail on every full row. It reports whether to
// continue producing.
func (e *Engine) joinRest(d *transform.Data, comps []*component, rest [][]core.Match, i int, row []rdf.Term, vi *varIndex, tail func([]rdf.Term) (bool, error)) (bool, error) {
	if i == len(rest) {
		return tail(row)
	}
	for _, sol := range rest[i] {
		merged, ok := e.mergeSolution(d, row, comps[i], sol, vi)
		if !ok {
			continue
		}
		cont, err := e.joinRest(d, comps, rest, i+1, merged, vi, tail)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}
