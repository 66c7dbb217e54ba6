package engine

import (
	"context"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/transform"
)

// mergeSolution folds one matcher solution into a row copy, rejecting
// conflicting bindings.
func (e *Engine) mergeSolution(d *transform.Data, row []rdf.Term, c *component, sol core.Match, vi *varIndex) ([]rdf.Term, bool) {
	merged := append([]rdf.Term(nil), row...)
	for i, tag := range c.vertexVar {
		if tag == "" {
			continue
		}
		slot := vi.slot(tag)
		if slot < 0 {
			continue
		}
		t := d.TermOfVertex(sol.Vertices[i])
		if merged[slot] != "" && merged[slot] != t {
			return nil, false
		}
		merged[slot] = t
	}
	for i, tag := range c.edgeVar {
		if tag == "" {
			continue
		}
		slot := vi.slot(tag)
		if slot < 0 {
			continue
		}
		t := d.TermOfEdgeLabel(sol.EdgeLabels[i])
		if merged[slot] != "" && merged[slot] != t {
			return nil, false
		}
		merged[slot] = t
	}
	return merged, true
}

// expandTypes multiplies rows by the admissible type terms of one
// `?s rdf:type ?t` expansion: the intersection of the direct types of every
// subject the variable covers.
func (e *Engine) expandTypes(d *transform.Data, rows [][]rdf.Term, exp typeExpansion, vi *varIndex, outer sparql.Bindings) [][]rdf.Term {
	slot := vi.slot(exp.typeVar)
	var out [][]rdf.Term
	for _, row := range rows {
		types, ok := allowedTypes(d, exp, row, vi, outer)
		if !ok {
			continue
		}
		for _, l := range types {
			t := d.TermOfLabel(l)
			if slot >= 0 {
				if row[slot] != "" && row[slot] != t {
					continue
				}
				r2 := append([]rdf.Term(nil), row...)
				r2[slot] = t
				out = append(out, r2)
			} else {
				out = append(out, row)
			}
		}
	}
	return out
}

func allowedTypes(d *transform.Data, exp typeExpansion, row []rdf.Term, vi *varIndex, outer sparql.Bindings) ([]uint32, bool) {
	var sets [][]uint32
	addVertexTypes := func(v uint32) {
		sets = append(sets, d.SimpleTypes(v))
	}
	for _, v := range exp.subjConst {
		addVertexTypes(v)
	}
	for _, name := range exp.subjVars {
		var term rdf.Term
		if slot := vi.slot(name); slot >= 0 && row[slot] != "" {
			term = row[slot]
		} else if outer != nil {
			term = outer[name]
		}
		if term == "" {
			return nil, false // subject not bound: no types derivable
		}
		v, ok := d.VertexOf(term)
		if !ok {
			return nil, false
		}
		addVertexTypes(v)
	}
	if len(sets) == 0 {
		return nil, false
	}
	// Intersect (sets are sorted).
	cur := sets[0]
	for _, s := range sets[1:] {
		var next []uint32
		i, j := 0, 0
		for i < len(cur) && j < len(s) {
			switch {
			case cur[i] == s[j]:
				next = append(next, cur[i])
				i++
				j++
			case cur[i] < s[j]:
				i++
			default:
				j++
			}
		}
		cur = next
		if len(cur) == 0 {
			break
		}
	}
	if exp.typeVar != "" && outer != nil {
		if t, ok := outer[exp.typeVar]; ok && t != "" {
			l, ok := d.LabelOf(t)
			if !ok {
				return nil, false
			}
			var filtered []uint32
			for _, x := range cur {
				if x == l {
					filtered = append(filtered, x)
				}
			}
			cur = filtered
		}
	}
	return cur, len(cur) > 0
}

// execOptional left-joins rows with an OPTIONAL group (pre-expanded into
// its flat alternatives). Each row compiles every alternative with the
// row's bindings pinned as constants (buildPlan with outer bindings) and
// runs it through streamGroup: rows that match extend, in alternative and
// solution order; rows that do not keep their bindings with the group's
// variables null — emitted exactly once (the paper's qualify-and-exclude-
// duplicate outcome via standard left-join semantics).
func (e *Engine) execOptional(ctx context.Context, d *transform.Data, flats []*flatGroup, vi *varIndex, rows [][]rdf.Term, outer sparql.Bindings) ([][]rdf.Term, error) {
	var out [][]rdf.Term
	for _, row := range rows {
		inner := e.rowBindings(row, vi, outer)
		matched := false
		for _, flat := range flats {
			p, err := e.buildPlan(d, flat, inner)
			if err != nil {
				return nil, err
			}
			err = e.streamGroup(ctx, p, flat, vi, nil, func(sub []rdf.Term) bool {
				matched = true
				if merged, ok := mergeRow(row, sub); ok {
					out = append(out, merged)
				}
				return true
			})
			if err != nil {
				return nil, err
			}
		}
		if !matched {
			out = append(out, row)
		}
	}
	return out, nil
}

// mergeRow overlays the bound slots of sub onto a copy of row, rejecting
// conflicting bindings.
func mergeRow(row, sub []rdf.Term) ([]rdf.Term, bool) {
	merged := append([]rdf.Term(nil), row...)
	for i, t := range sub {
		if t == "" {
			continue
		}
		if merged[i] != "" && merged[i] != t {
			return nil, false
		}
		merged[i] = t
	}
	return merged, true
}

// rowBindings builds the variable bindings visible to filters and nested
// groups: the row's values, falling back to enclosing bindings.
func (e *Engine) rowBindings(row []rdf.Term, vi *varIndex, outer sparql.Bindings) sparql.Bindings {
	b := make(sparql.Bindings, len(vi.names)+len(outer))
	for k, v := range outer {
		b[k] = v
	}
	for i, name := range vi.names {
		if row[i] != "" {
			b[name] = row[i]
		}
	}
	return b
}
