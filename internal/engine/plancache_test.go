package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/transform"
)

func planCacheTriples() []rdf.Triple {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://u/" + s) }
	var ts []rdf.Triple
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			ts = append(ts, rdf.Triple{S: iri(string(rune('a' + i))), P: iri("p"), O: iri(string(rune('a' + j)))})
		}
	}
	return ts
}

// latestEpoch reports the snapshot epoch of the prepared query's cached
// compilation.
func latestEpoch(pq *PreparedQuery) uint64 {
	pq.mu.Lock()
	defer pq.mu.Unlock()
	return pq.latest.data.Epoch
}

// TestPlanCacheDropsSupersededEpochs pins the prepared-plan cache's bound:
// it holds only the newest compilation, while an open cursor keeps
// enumerating the snapshot its own plans were compiled against — a
// superseded compilation lives exactly as long as the cursors holding it,
// and a burst of updates leaves a single cached entry.
func TestPlanCacheDropsSupersededEpochs(t *testing.T) {
	mut := transform.NewMutable(planCacheTriples(), transform.TypeAware)
	e := New(mut.Current(), core.Optimized())
	pq, err := e.Prepare(`SELECT ?x ?y WHERE { ?x <http://u/p> ?y . }`)
	if err != nil {
		t.Fatal(err)
	}
	d0 := e.Data()
	e0 := d0.Epoch
	if got := latestEpoch(pq); got != e0 {
		t.Fatalf("after prepare: cached epoch %d, want %d", got, e0)
	}

	// A cursor opened at the current snapshot holds that epoch's plans.
	rows := pq.Select(t.Context())

	iri := func(s string) rdf.Term { return rdf.NewIRI("http://u/" + s) }
	d, n := mut.Apply([]rdf.Triple{{S: iri("z"), P: iri("p"), O: iri("a")}}, nil)
	if n != 1 {
		t.Fatalf("apply: %d changes", n)
	}
	e.SetData(d)
	e1 := d.Epoch

	// Executing at the new snapshot compiles its plans and caches them in
	// place of the old epoch's.
	if _, err := pq.Exec(t.Context()); err != nil {
		t.Fatal(err)
	}
	if got := latestEpoch(pq); got != e1 {
		t.Fatalf("with open cursor: cached epoch %d, want %d", got, e1)
	}

	// The cursor still enumerates its pinned snapshot (16 rows, not 17).
	got := 0
	for rows.Next() {
		got++
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if got != 16 {
		t.Fatalf("pinned cursor saw %d rows, want 16", got)
	}

	// A burst of cursor-less updates leaves only the newest compilation.
	for i := 0; i < 3; i++ {
		d, _ := mut.Apply([]rdf.Triple{{S: iri("z"), P: iri("p"), O: iri(string(rune('b' + i)))}}, nil)
		e.SetData(d)
		if _, err := pq.Exec(t.Context()); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := latestEpoch(pq), e.Data().Epoch; got != want {
		t.Fatalf("after burst: cached epoch %d, want %d", got, want)
	}

	// A compilation for an older snapshot never replaces a newer one.
	if _, err := pq.plansFor(d0); err != nil {
		t.Fatal(err)
	}
	if got, want := latestEpoch(pq), e.Data().Epoch; got != want {
		t.Fatalf("after stale compile: cached epoch %d, want %d", got, want)
	}
}

// TestRowsEpochAndFootprint covers the cursor's cache-facing accessors: the
// epoch is the pinned snapshot's, and the footprint covers the query's
// predicate reads.
func TestRowsEpochAndFootprint(t *testing.T) {
	mut := transform.NewMutable(planCacheTriples(), transform.TypeAware)
	e := New(mut.Current(), core.Optimized())
	pq, err := e.Prepare(`SELECT ?x ?y WHERE { ?x <http://u/p> ?y . }`)
	if err != nil {
		t.Fatal(err)
	}
	rows := pq.Select(t.Context())
	defer rows.Close()
	if rows.Epoch() != e.Data().Epoch {
		t.Fatalf("cursor epoch %d, want %d", rows.Epoch(), e.Data().Epoch)
	}
	fp := rows.Footprint()
	if fp == nil || fp.Empty() {
		t.Fatalf("cursor footprint %v, want non-empty", fp)
	}
	delta := mut.LastFootprint()
	if !delta.Empty() {
		t.Fatalf("no updates yet, delta footprint %v", delta)
	}
}
