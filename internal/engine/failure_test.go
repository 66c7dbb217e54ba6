package engine

// Failure-injection and edge-case tests: empty stores, unconstrained
// queries, unknown prefixes, blank nodes, patterns the type-aware
// representation cannot answer, and zero-solution paths.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/transform"
)

func TestEmptyStore(t *testing.T) {
	e := New(transform.Build(nil, transform.TypeAware), core.Optimized())
	n, err := e.Count(`SELECT ?s WHERE { ?s ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("count on empty store = %d", n)
	}
}

func TestUnknownPrefixErrors(t *testing.T) {
	aware, _ := newEngines(t)
	if _, err := aware.Query(`SELECT ?x WHERE { ?x nosuch:pred ?y . }`); err == nil {
		t.Fatal("undeclared prefix accepted")
	}
}

func TestQueryWithNoConstants(t *testing.T) {
	// Full scan: every (s, p, o) combination. The direct transformation
	// sees every triple; the type-aware one sees everything except
	// rdfs:subClassOf triples, which fold into the label hierarchy (the
	// documented representation loss — rdf:type triples ARE recovered,
	// through the Lsimple wildcard expansion).
	aware, direct := newEngines(t)
	a, err := aware.Count(`SELECT ?s ?p ?o WHERE { ?s ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := direct.Count(`SELECT ?s ?p ?o WHERE { ?s ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	subClass := 0
	for _, tr := range uniTriples() {
		if tr.P == rdf.SubClassTerm {
			subClass++
		}
	}
	if d != len(uniTriples()) {
		t.Fatalf("direct full scan = %d, want %d", d, len(uniTriples()))
	}
	if a != d-subClass {
		t.Fatalf("type-aware full scan = %d, want %d (all but %d subClassOf)", a, d-subClass, subClass)
	}
}

func TestSelfLoopPattern(t *testing.T) {
	ts := []rdf.Triple{
		{S: iri("n"), P: iri("loop"), O: iri("n")},
		{S: iri("n"), P: iri("loop"), O: iri("m")},
	}
	e := New(transform.Build(ts, transform.TypeAware), core.Optimized())
	n, err := e.Count(`PREFIX : <http://example.org/> SELECT ?x WHERE { ?x :loop ?x . }`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("self-loop count = %d, want 1", n)
	}
}

// TestSubClassOfUnqueryableUnderTypeAware documents the type-aware
// transformation's representation loss: rdfs:subClassOf triples fold into
// the label hierarchy and cannot be matched as edges (they can under the
// direct transformation).
func TestSubClassOfUnqueryableUnderTypeAware(t *testing.T) {
	aware, direct := newEngines(t)
	q := `PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
		PREFIX : <http://example.org/>
		SELECT ?c WHERE { ?c rdfs:subClassOf :Person . }`
	n, err := aware.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("type-aware subClassOf count = %d, want 0 (folded away)", n)
	}
	n, err = direct.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 { // Student and Professor
		t.Fatalf("direct subClassOf count = %d, want 2", n)
	}
}

func TestBlankNodesAsVertices(t *testing.T) {
	ts := []rdf.Triple{
		{S: rdf.NewBlank("b0"), P: iri("p"), O: iri("x")},
		{S: iri("y"), P: iri("p"), O: rdf.NewBlank("b0")},
	}
	e := New(transform.Build(ts, transform.TypeAware), core.Optimized())
	n, err := e.Count(`PREFIX : <http://example.org/> SELECT ?a ?c WHERE { ?a :p ?b . ?b :p ?c . }`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 { // y -> _:b0 -> x
		t.Fatalf("blank-node join = %d, want 1", n)
	}
}

func TestFilterOnUnboundVariableEliminatesRows(t *testing.T) {
	aware, _ := newEngines(t)
	// ?z is never bound: comparison errors are null, null FILTERs drop rows.
	n, err := aware.Count(prefix + `SELECT ?x WHERE { ?x a :Product . FILTER(?z > 1) }`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("count = %d, want 0", n)
	}
}

func TestLimitClauseCapsRows(t *testing.T) {
	aware, _ := newEngines(t)
	res, err := aware.Query(prefix + `SELECT ?x WHERE { ?x a :Person . } LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("limit ignored: %d rows", len(res.Rows))
	}
}

func TestZeroSolutionTriangle(t *testing.T) {
	// A triangle pattern with no instance in the data: exploration must
	// terminate cleanly everywhere.
	aware, direct := newEngines(t)
	q := prefix + `SELECT ?a WHERE { ?a :advisor ?b . ?b :advisor ?c . ?c :advisor ?a . }`
	for _, e := range []*Engine{aware, direct} {
		n, err := e.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("count = %d, want 0", n)
		}
	}
}

func TestDataAccessorAndResultString(t *testing.T) {
	aware, _ := newEngines(t)
	if aware.Data() == nil {
		t.Fatal("Data() returned nil")
	}
	res, err := aware.Query(prefix + `SELECT ?x WHERE { ?x a :Product . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.String() == "" {
		t.Fatal("empty result String()")
	}
}

// TestTypeVariableWithPinnedType exercises allowedTypes' outer-binding
// filter: a type variable constrained by an enclosing OPTIONAL binding.
func TestTypeVariableWithPinnedType(t *testing.T) {
	aware, _ := newEngines(t)
	// ?t is bound by the required part; the OPTIONAL re-states the type
	// pattern, forcing the type expansion to respect the existing binding.
	res, err := aware.Query(prefix + `SELECT ?t ?n WHERE {
		:alice a ?t .
		OPTIONAL { :bob a ?t . :bob :name ?n . }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	// alice's types: GraduateStudent, Student, Person. bob shares
	// GraduateStudent/Student/Person, so ?n binds everywhere bob has the
	// same type.
	for _, row := range res.Rows {
		if row[0] == "" {
			t.Fatalf("unbound type in %v", res.Rows)
		}
	}
}

// TestTypeVariableIntersection: one type variable over two subjects yields
// only the shared types.
func TestTypeVariableIntersection(t *testing.T) {
	aware, _ := newEngines(t)
	res, err := aware.Query(prefix + `SELECT ?t WHERE { :alice a ?t . :prof0 a ?t . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != iri("Person") {
		t.Fatalf("shared types = %v, want [Person]", res.Rows)
	}
}

// TestTypeVariableUnknownSubject: a pinned subject absent from the data.
func TestTypeVariableUnknownSubject(t *testing.T) {
	aware, _ := newEngines(t)
	n, err := aware.Count(prefix + `SELECT ?t WHERE { :nobody a ?t . }`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("count = %d, want 0", n)
	}
}
