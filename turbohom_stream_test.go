package turbohom

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
)

// wideTriples builds n authors with 4 papers each: 4n solutions for the
// author-wrote-paper pattern, spread over n candidate regions.
func wideTriples(n int) []Triple {
	e := func(s string) Term { return NewIRI("http://ex.org/" + s) }
	var ts []Triple
	for i := 0; i < n; i++ {
		author := e(fmt.Sprintf("author%d", i))
		ts = append(ts, Triple{S: author, P: TypeTerm, O: e("Author")})
		for j := 0; j < 4; j++ {
			paper := e(fmt.Sprintf("paper%d_%d", i, j))
			ts = append(ts, Triple{S: paper, P: TypeTerm, O: e("Paper")})
			ts = append(ts, Triple{S: author, P: e("wrote"), O: paper})
		}
	}
	return ts
}

const wideQuery = apiPrefix + `SELECT ?a ?p WHERE { ?a rdf:type ex:Author . ?a ex:wrote ?p . }`

func TestPrepareAndSelect(t *testing.T) {
	s := New(apiTriples(), nil)
	p, err := s.Prepare(apiPrefix + `SELECT ?x ?y WHERE { ?x ex:advisor ?y . }`)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Vars(); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("Vars = %v", got)
	}

	rows := p.Select(context.Background())
	var x, y Term
	n := 0
	for rows.Next() {
		if err := rows.Scan(&x, &y); err != nil {
			t.Fatal(err)
		}
		if x == "" || string(y) != "<http://ex.org/carol>" {
			t.Fatalf("unexpected row %s %s", x, y)
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("rows = %d, want 2", n)
	}

	// Prepared re-execution agrees with the one-shot paths.
	res, err := s.Query(apiPrefix + `SELECT ?x ?y WHERE { ?x ex:advisor ?y . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != n {
		t.Fatalf("Query = %d rows, cursor = %d", res.Len(), n)
	}
	cnt, err := p.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cnt != n {
		t.Fatalf("Count = %d, want %d", cnt, n)
	}
}

func TestAllIterator(t *testing.T) {
	s := New(wideTriples(20), nil)
	p, err := s.Prepare(wideQuery)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for row, err := range p.All(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		if len(row) != 2 || row[0] == "" || row[1] == "" {
			t.Fatalf("bad row %v", row)
		}
		n++
	}
	if n != 80 {
		t.Fatalf("iterated %d rows, want 80", n)
	}

	// Breaking out early terminates cleanly.
	n = 0
	for _, err := range p.All(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n == 3 {
			break
		}
	}
	if n != 3 {
		t.Fatalf("early break iterated %d rows", n)
	}

	// A cancelled context is yielded as the final error pair.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sawErr error
	for row, err := range p.All(ctx) {
		if err != nil {
			sawErr = err
			continue
		}
		t.Fatalf("unexpected row %v under cancelled context", row)
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", sawErr)
	}
}

// TestCloseAbandonsSearch asserts the acceptance criterion at the public
// layer: closing the cursor after k rows visits a small fraction of the
// candidate regions and search nodes of a full enumeration.
func TestCloseAbandonsSearch(t *testing.T) {
	s := New(wideTriples(300), nil)
	p, err := s.Prepare(wideQuery)
	if err != nil {
		t.Fatal(err)
	}

	var full core.ProfileResult
	r := &Rows{r: p.pq.SelectProfiled(context.Background(), &full)}
	total := 0
	for r.Next() {
		total++
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if total != 1200 {
		t.Fatalf("full enumeration = %d rows, want 1200", total)
	}

	var part core.ProfileResult
	r = &Rows{r: p.pq.SelectProfiled(context.Background(), &part)}
	for i := 0; i < 5; i++ {
		if !r.Next() {
			t.Fatalf("missing row %d: %v", i, r.Err())
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if part.Regions == 0 || part.Regions*4 >= full.Regions {
		t.Fatalf("Close did not abandon regions: explored %d of %d", part.Regions, full.Regions)
	}
	if part.SearchNodes*4 >= full.SearchNodes {
		t.Fatalf("Close did not abandon search: %d of %d nodes", part.SearchNodes, full.SearchNodes)
	}
}

func TestSelectContextCancel(t *testing.T) {
	s := New(wideTriples(300), nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := s.Select(ctx, wideQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	seen := 0
	for rows.Next() {
		seen++
		if seen == 2 {
			cancel()
		}
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", rows.Err())
	}
	if seen >= 1200 {
		t.Fatalf("cancellation did not stop enumeration (saw %d)", seen)
	}
}

// TestPreparedConcurrent runs one Prepared from many goroutines (exercised
// under -race in CI).
func TestPreparedConcurrent(t *testing.T) {
	s := New(wideTriples(50), nil)
	p, err := s.Prepare(wideQuery)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	counts := make([]int, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, err := range p.All(context.Background()) {
				if err != nil {
					errs[w] = err
					return
				}
				counts[w]++
			}
		}(w)
	}
	wg.Wait()
	for w, c := range counts {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if c != 200 {
			t.Fatalf("worker %d saw %d rows, want 200", w, c)
		}
	}
}

func TestGraphStreamingIterators(t *testing.T) {
	gb := NewGraphBuilder()
	const n = 30
	hubs := make([]int, 0, n)
	for i := 0; i < n; i++ {
		h := gb.AddVertex("hub")
		leaf := gb.AddVertex("leaf")
		gb.AddEdge(h, leaf, "link")
		hubs = append(hubs, h)
	}
	g := gb.Build()

	p := NewPattern()
	a := p.AddVertex("hub")
	b := p.AddVertex("leaf")
	p.AddEdge(a, b, "link")

	want, err := g.FindIsomorphisms(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != n {
		t.Fatalf("FindIsomorphisms = %d, want %d", len(want), n)
	}

	got := 0
	for m, err := range g.Isomorphisms(context.Background(), p) {
		if err != nil {
			t.Fatal(err)
		}
		if len(m) != 2 {
			t.Fatalf("mapping %v", m)
		}
		got++
	}
	if got != n {
		t.Fatalf("Isomorphisms streamed %d, want %d", got, n)
	}

	// Early break stops the matcher without error.
	got = 0
	for _, err := range g.Homomorphisms(context.Background(), p) {
		if err != nil {
			t.Fatal(err)
		}
		got++
		if got == 4 {
			break
		}
	}
	if got != 4 {
		t.Fatalf("early break streamed %d", got)
	}

	// Cancelled context yields its error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sawErr error
	for _, err := range g.Isomorphisms(ctx, p) {
		if err != nil {
			sawErr = err
		}
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", sawErr)
	}
}
