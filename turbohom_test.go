package turbohom

import (
	"sort"
	"strings"
	"testing"
)

const apiPrefix = `PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX ex: <http://ex.org/>
`

func apiTriples() []Triple {
	e := func(s string) Term { return NewIRI("http://ex.org/" + s) }
	return []Triple{
		{S: e("alice"), P: TypeTerm, O: e("Student")},
		{S: e("bob"), P: TypeTerm, O: e("Student")},
		{S: e("carol"), P: TypeTerm, O: e("Professor")},
		{S: e("alice"), P: e("advisor"), O: e("carol")},
		{S: e("bob"), P: e("advisor"), O: e("carol")},
		{S: e("alice"), P: e("age"), O: NewIntLiteral(22)},
		{S: e("bob"), P: e("age"), O: NewIntLiteral(27)},
		{S: e("alice"), P: e("name"), O: NewLiteral("Alice")},
	}
}

func TestStoreQuery(t *testing.T) {
	s := New(apiTriples(), nil)
	res, err := s.Query(apiPrefix + `SELECT ?x WHERE { ?x rdf:type ex:Student . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Len())
	}
}

func TestStoreCount(t *testing.T) {
	s := New(apiTriples(), nil)
	n, err := s.Count(apiPrefix + `SELECT ?x WHERE { ?x ex:advisor ex:carol . ?x ex:age ?a . FILTER(?a > 25) }`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("count = %d, want 1", n)
	}
}

func TestStoreOptions(t *testing.T) {
	for _, opts := range []*Options{
		nil,
		{},
		{Transformation: Direct},
		{DisableOptimizations: true},
		{Workers: 2},
		{NEC: NECOff},
	} {
		s := New(apiTriples(), opts)
		n, err := s.Count(apiPrefix + `SELECT ?x WHERE { ?x ex:advisor ?y . }`)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if n != 2 {
			t.Fatalf("opts %+v: count = %d, want 2", opts, n)
		}
	}
}

func TestStoreStats(t *testing.T) {
	direct := New(apiTriples(), &Options{Transformation: Direct})
	aware := New(apiTriples(), nil)
	ds, as := direct.Stats(), aware.Stats()
	if ds.Triples != len(apiTriples()) || as.Triples != ds.Triples {
		t.Fatalf("triple counts: %d %d", ds.Triples, as.Triples)
	}
	if as.Edges >= ds.Edges {
		t.Fatalf("type-aware edges (%d) should be fewer than direct (%d)", as.Edges, ds.Edges)
	}
	if as.Transformation != "type-aware" || ds.Transformation != "direct" {
		t.Fatalf("transformation names: %q %q", as.Transformation, ds.Transformation)
	}
}

func TestOpenNTriples(t *testing.T) {
	nt := `<http://ex.org/a> <http://ex.org/p> <http://ex.org/b> .
<http://ex.org/b> <http://ex.org/p> <http://ex.org/c> .
`
	s, err := Open(strings.NewReader(nt), nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Count(`PREFIX ex: <http://ex.org/> SELECT ?x ?z WHERE { ?x ex:p ?y . ?y ex:p ?z . }`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("count = %d, want 1", n)
	}
}

func TestOpenBadNTriples(t *testing.T) {
	if _, err := Open(strings.NewReader("not ntriples at all\n"), nil); err == nil {
		t.Fatal("malformed input accepted")
	}
}

func TestOpenFileMissing(t *testing.T) {
	if _, err := OpenFile("/nonexistent/data.nt", nil); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestGraphAPIPaperFig1 is the paper's Figure 1 as a golden test against
// the public API: query q1 on data graph g1 has exactly one subgraph
// isomorphism and three e-graph homomorphisms (reconstruction of the
// figure follows internal/core's, derived from the published solution
// set).
func TestGraphAPIPaperFig1(t *testing.T) {
	gb := NewGraphBuilder()
	v0 := gb.AddVertex("B")
	v1 := gb.AddVertex("A")
	v2 := gb.AddVertex("B")
	v3 := gb.AddVertex("A", "D")
	v4 := gb.AddVertex("C")
	v5 := gb.AddVertex("C", "E")
	gb.AddEdge(v0, v1, "a")
	gb.AddEdge(v0, v4, "b")
	gb.AddEdge(v2, v1, "a")
	gb.AddEdge(v2, v3, "a")
	gb.AddEdge(v2, v5, "b")
	gb.AddEdge(v3, v4, "c")
	gb.AddEdge(v3, v5, "c")
	g := gb.Build()

	p := NewPattern()
	u0 := p.AddVertex()
	u1 := p.AddVertex("A")
	u2 := p.AddVertex("B")
	u3 := p.AddVertex("A")
	u4 := p.AddVertex("C")
	p.AddEdge(u0, u1, "a")
	p.AddEdge(u0, u4, "b")
	p.AddEdge(u2, u1, "a")
	p.AddEdge(u2, u3, "a")
	p.AddWildcardEdge(u3, u4)

	iso, err := g.FindIsomorphisms(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(iso) != 1 {
		t.Fatalf("isomorphisms = %d, want 1 (%v)", len(iso), iso)
	}
	want := []int{v0, v1, v2, v3, v4}
	for i, v := range iso[0] {
		if v != want[i] {
			t.Fatalf("isomorphism = %v, want %v", iso[0], want)
		}
	}

	hom, err := g.FindHomomorphisms(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(hom) != 3 {
		t.Fatalf("homomorphisms = %d, want 3 (%v)", len(hom), hom)
	}
	_ = v5
}

func TestGraphAPIUnknownLabel(t *testing.T) {
	gb := NewGraphBuilder()
	a := gb.AddVertex("A")
	b := gb.AddVertex("B")
	gb.AddEdge(a, b, "x")
	g := gb.Build()

	p := NewPattern()
	p.AddVertex("Z") // label absent from the graph
	res, err := g.FindHomomorphisms(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("matches = %v, want none", res)
	}
}

func TestGraphAPIStats(t *testing.T) {
	gb := NewGraphBuilder()
	a := gb.AddVertex("A")
	b := gb.AddVertex()
	gb.AddEdge(a, b, "x")
	g := gb.Build()
	if g.NumVertices() != 2 || g.NumEdges() != 1 {
		t.Fatalf("stats = %d/%d, want 2/1", g.NumVertices(), g.NumEdges())
	}
}

func TestResultsUnboundOptional(t *testing.T) {
	s := New(apiTriples(), nil)
	res, err := s.Query(apiPrefix + `SELECT ?x ?n WHERE {
		?x rdf:type ex:Student .
		OPTIONAL { ?x ex:name ?n . } }`)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range res.Rows {
		names = append(names, string(r[1]))
	}
	sort.Strings(names)
	if len(names) != 2 || names[0] != "" || !strings.Contains(names[1], "Alice") {
		t.Fatalf("names = %q", names)
	}
}

func TestGraphAPIProfile(t *testing.T) {
	gb := NewGraphBuilder()
	a := gb.AddVertex("A")
	b := gb.AddVertex("B")
	c := gb.AddVertex("B")
	gb.AddEdge(a, b, "x")
	gb.AddEdge(a, c, "x")
	g := gb.Build()

	p := NewPattern()
	u0 := p.AddVertex("A")
	u1 := p.AddVertex("B")
	p.AddEdge(u0, u1, "x")

	pr, err := g.ProfileHomomorphisms(p)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Solutions != 2 {
		t.Fatalf("profile solutions = %d, want 2", pr.Solutions)
	}
	if pr.Regions != 1 || pr.StartCandidates != 1 {
		t.Fatalf("profile = %+v, want one region from the A vertex", pr)
	}
	iso, err := g.ProfileIsomorphisms(p)
	if err != nil {
		t.Fatal(err)
	}
	if iso.Solutions != 2 {
		t.Fatalf("iso profile solutions = %d, want 2", iso.Solutions)
	}
}

// TestStoreNECStar runs a repeated-predicate star query through the public
// API with the NEC reduction on and off: same count, and the reduction is
// the default.
func TestStoreNECStar(t *testing.T) {
	e := func(s string) Term { return NewIRI("http://ex.org/" + s) }
	var ts []Triple
	for h := 0; h < 4; h++ {
		hub := e("hub" + string(rune('0'+h)))
		for f := 0; f <= h+1; f++ {
			ts = append(ts, Triple{S: hub, P: e("knows"), O: e("f" + string(rune('0'+h)) + string(rune('a'+f)))})
		}
	}
	q := apiPrefix + `SELECT ?h ?a ?b ?c WHERE { ?h ex:knows ?a . ?h ex:knows ?b . ?h ex:knows ?c . }`

	on, err := New(ts, nil).Count(q)
	if err != nil {
		t.Fatal(err)
	}
	off, err := New(ts, &Options{NEC: NECOff}).Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if on != off {
		t.Fatalf("NEC on %d != off %d", on, off)
	}
	// Homomorphism semantics: each hub contributes fanout^3 rows.
	want := 0
	for h := 0; h < 4; h++ {
		f := h + 2
		want += f * f * f
	}
	if on != want {
		t.Fatalf("count = %d, want %d", on, want)
	}
}
