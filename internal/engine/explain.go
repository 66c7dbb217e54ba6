package engine

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
)

// ComponentExplain reports how the matcher executes one connected component
// of a basic graph pattern: the matching order (as SPARQL variable names,
// or constant terms), the cost model's per-position cardinality estimates,
// and the matcher's effort counters, signature kill rates included.
type ComponentExplain struct {
	// Order lists the matching order; Order[0] is the start vertex.
	Order []string
	// Core carries the matcher-level explanation: original-index order,
	// per-position cardinality estimates, and the profile counters.
	Core core.ExplainResult
}

// GroupExplain is one UNION alternative's explanation. Solutions are
// per-component BGP counts — OPTIONAL, post-match FILTERs, DISTINCT and
// LIMIT apply downstream of what is profiled here.
type GroupExplain struct {
	Components []ComponentExplain
	// Empty marks an alternative statically proven empty (a term, label,
	// or predicate unknown to the dictionary).
	Empty bool
}

// Explain is a prepared query's execution explanation.
type Explain struct {
	Groups []GroupExplain
}

// Explain executes the prepared query sequentially, component by component,
// and reports each component's matching order, cost estimates, and effort
// counters. It pays for a full execution of every component.
func (pq *PreparedQuery) Explain(ctx context.Context) (*Explain, error) {
	d := pq.e.Data()
	pe, err := pq.plansFor(d)
	if err != nil {
		return nil, err
	}
	ex := &Explain{}
	for _, p := range pe.plans {
		ge := GroupExplain{Empty: p.empty}
		if !p.empty {
			for _, c := range p.comps {
				cer, err := core.Explain(ctx, p.data.G, c.qg, pq.e.sem, pq.e.opts)
				if err != nil {
					return nil, err
				}
				ce := ComponentExplain{Core: cer}
				for _, u := range cer.Order {
					ce.Order = append(ce.Order, c.vertexName(p, u))
				}
				ge.Components = append(ge.Components, ce)
			}
		}
		ex.Groups = append(ex.Groups, ge)
	}
	return ex, nil
}

// vertexName renders query vertex u for display: its variable name, the
// constant term it is pinned to, or a positional placeholder.
func (c *component) vertexName(p *plan, u int) string {
	if u < len(c.vertexVar) && c.vertexVar[u] != "" {
		return "?" + c.vertexVar[u]
	}
	if qv := c.qg.Vertices[u]; qv.ID != core.NoID {
		return string(p.data.TermOfVertex(qv.ID))
	}
	return fmt.Sprintf("_:v%d", u)
}

// String renders the explanation for human consumption: one block per
// component with the matching order, the estimated rows at each position,
// and the filter counters.
func (ex *Explain) String() string {
	var b strings.Builder
	for gi, g := range ex.Groups {
		if len(ex.Groups) > 1 {
			fmt.Fprintf(&b, "union alternative %d:\n", gi+1)
		}
		if g.Empty {
			b.WriteString("  (statically empty: unknown term)\n")
			continue
		}
		for ci, c := range g.Components {
			cr := &c.Core
			model := "population heuristic"
			if cr.CostOrdered {
				model = "statistics cost model"
			}
			fmt.Fprintf(&b, "component %d (%s, %d start candidates):\n", ci+1, model, cr.StartCandidates)
			for i, name := range c.Order {
				fmt.Fprintf(&b, "  %2d. %-24s", i+1, name)
				if i < len(cr.EstRows) {
					fmt.Fprintf(&b, " est rows %.1f", cr.EstRows[i])
				}
				b.WriteByte('\n')
			}
			pr := &cr.Profile
			fmt.Fprintf(&b, "  search nodes %d, regions %d, solutions %d\n",
				pr.SearchNodes, pr.Regions, cr.Solutions)
			fmt.Fprintf(&b, "  signature checked %d, killed %d", pr.SignatureChecked, pr.SignatureKilled)
			if pr.SignatureChecked > 0 {
				fmt.Fprintf(&b, " (%.1f%%)", 100*float64(pr.SignatureKilled)/float64(pr.SignatureChecked))
			}
			b.WriteByte('\n')
			if pr.NECClasses > 0 {
				fmt.Fprintf(&b, "  NEC classes %d, merged vertices %d, expansions skipped %d\n",
					pr.NECClasses, pr.NECMergedVertices, pr.NECExpansionsSkipped)
			}
		}
	}
	return b.String()
}
