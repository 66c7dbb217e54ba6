package engine

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/transform"
)

const ns = "http://example.org/"

func iri(s string) rdf.Term { return rdf.NewIRI(ns + s) }

// uniTriples is a small university dataset with explicit type closure (as
// the paper loads original + inferred triples).
func uniTriples() []rdf.Triple {
	tp := rdf.TypeTerm
	sc := rdf.SubClassTerm
	var ts []rdf.Triple
	add := func(s, p, o rdf.Term) { ts = append(ts, rdf.Triple{S: s, P: p, O: o}) }

	add(iri("GraduateStudent"), sc, iri("Student"))
	add(iri("UndergraduateStudent"), sc, iri("Student"))
	add(iri("Student"), sc, iri("Person"))
	add(iri("Professor"), sc, iri("Person"))

	// Two universities, two departments.
	add(iri("univ0"), tp, iri("University"))
	add(iri("univ1"), tp, iri("University"))
	add(iri("dept0"), tp, iri("Department"))
	add(iri("dept1"), tp, iri("Department"))
	add(iri("dept0"), iri("subOrganizationOf"), iri("univ0"))
	add(iri("dept1"), iri("subOrganizationOf"), iri("univ1"))

	// Students with inferred superclass types materialized.
	students := []struct {
		name  string
		kind  string
		dept  string
		ugUni string
	}{
		{"alice", "GraduateStudent", "dept0", "univ0"},
		{"bob", "GraduateStudent", "dept0", "univ1"},
		{"carol", "GraduateStudent", "dept1", "univ1"},
		{"dave", "UndergraduateStudent", "dept0", ""},
	}
	for _, s := range students {
		add(iri(s.name), tp, iri(s.kind))
		add(iri(s.name), tp, iri("Student")) // inferred
		add(iri(s.name), tp, iri("Person"))  // inferred
		add(iri(s.name), iri("memberOf"), iri(s.dept))
		if s.ugUni != "" {
			add(iri(s.name), iri("undergraduateDegreeFrom"), iri(s.ugUni))
		}
		add(iri(s.name), iri("name"), rdf.NewLiteral(strings.ToUpper(s.name)))
	}
	add(iri("prof0"), tp, iri("Professor"))
	add(iri("prof0"), tp, iri("Person")) // inferred
	add(iri("prof0"), iri("worksFor"), iri("dept0"))
	add(iri("alice"), iri("advisor"), iri("prof0"))
	add(iri("bob"), iri("advisor"), iri("prof0"))

	// Products for FILTER/OPTIONAL tests (paper §5.1 example).
	add(iri("product1"), tp, iri("Product"))
	add(iri("product1"), iri("price"), rdf.NewIntLiteral(100))
	add(iri("product1"), iri("rating"), rdf.NewIntLiteral(5))
	add(iri("product1"), iri("rating"), rdf.NewIntLiteral(1))
	add(iri("product2"), tp, iri("Product"))
	add(iri("product2"), iri("price"), rdf.NewIntLiteral(250))
	add(iri("product2"), iri("rating"), rdf.NewIntLiteral(3))
	add(iri("product2"), iri("homepage"), rdf.NewLiteral("http://shop/p2"))
	return ts
}

func newEngines(t *testing.T) (aware, direct *Engine) {
	t.Helper()
	ts := uniTriples()
	aware = New(transform.Build(ts, transform.TypeAware), core.Optimized())
	direct = New(transform.Build(ts, transform.Direct), core.Optimized())
	return aware, direct
}

func rowsKey(res *Result) []string {
	keys := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		parts := make([]string, len(r))
		for i, t := range r {
			parts[i] = string(t)
		}
		keys = append(keys, strings.Join(parts, "|"))
	}
	sort.Strings(keys)
	return keys
}

func assertSameResults(t *testing.T, q string, a, b *Engine) *Result {
	t.Helper()
	ra, err := a.Query(q)
	if err != nil {
		t.Fatalf("type-aware: %v\nquery: %s", err, q)
	}
	rb, err := b.Query(q)
	if err != nil {
		t.Fatalf("direct: %v\nquery: %s", err, q)
	}
	ka, kb := rowsKey(ra), rowsKey(rb)
	if len(ka) != len(kb) {
		t.Fatalf("row count differs: type-aware %d vs direct %d\nquery: %s", len(ka), len(kb), q)
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("rows differ at %d:\n  aware : %s\n  direct: %s\nquery: %s", i, ka[i], kb[i], q)
		}
	}
	return ra
}

const prefix = "PREFIX : <" + ns + ">\n"

func TestBasicTypeQuery(t *testing.T) {
	aware, direct := newEngines(t)
	q := prefix + `SELECT ?x WHERE { ?x a :Student . }`
	res := assertSameResults(t, q, aware, direct)
	if len(res.Rows) != 4 {
		t.Errorf("students = %d, want 4", len(res.Rows))
	}
}

func TestTriangleQueryPaperFig5(t *testing.T) {
	aware, direct := newEngines(t)
	// The paper's Figure 5a query (triangle after type-aware transform).
	q := prefix + `SELECT ?X ?Y ?Z WHERE {
		?X a :Student . ?Y a :University . ?Z a :Department .
		?X :undergraduateDegreeFrom ?Y .
		?X :memberOf ?Z .
		?Z :subOrganizationOf ?Y . }`
	res := assertSameResults(t, q, aware, direct)
	// alice: dept0/univ0 with ugDegree univ0 -> match.
	// bob: dept0 (univ0) but ugDegree univ1 -> no.
	// carol: dept1/univ1, ugDegree univ1 -> match.
	if len(res.Rows) != 2 {
		t.Fatalf("triangle rows = %d, want 2: %v", len(res.Rows), res.Rows)
	}
}

func TestCountMatchesExec(t *testing.T) {
	aware, _ := newEngines(t)
	queries := []string{
		prefix + `SELECT ?x WHERE { ?x a :Student . }`,
		prefix + `SELECT ?x ?y WHERE { ?x :memberOf ?y . }`,
		prefix + `SELECT ?x WHERE { ?x :advisor :prof0 . }`,
		prefix + `SELECT ?x ?y ?z WHERE { ?x a :Student . ?x :memberOf ?y . ?y :subOrganizationOf ?z . }`,
	}
	for _, q := range queries {
		n, err := aware.Count(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		res, err := aware.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(res.Rows) {
			t.Errorf("Count=%d Exec=%d for %s", n, len(res.Rows), q)
		}
	}
}

func TestOptionalPaperExample(t *testing.T) {
	aware, direct := newEngines(t)
	// Paper Figure 12: price is required; rating+homepage optional as a
	// unit. product1 has ratings but no homepage, so the optional group
	// fails and the nullified row appears exactly once.
	q := prefix + `SELECT ?price ?rating ?homepage WHERE {
		:product1 a :Product . :product1 :price ?price .
		OPTIONAL { :product1 :rating ?rating . :product1 :homepage ?homepage . } }`
	res := assertSameResults(t, q, aware, direct)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (duplicate-excluded null row): %v", len(res.Rows), res.Rows)
	}
	row := res.Rows[0]
	if row[0] != rdf.NewIntLiteral(100) || row[1] != "" || row[2] != "" {
		t.Errorf("row = %v, want (100, null, null)", row)
	}
	// product2 has both: optional binds.
	q2 := prefix + `SELECT ?price ?rating ?homepage WHERE {
		:product2 a :Product . :product2 :price ?price .
		OPTIONAL { :product2 :rating ?rating . :product2 :homepage ?homepage . } }`
	res2 := assertSameResults(t, q2, aware, direct)
	if len(res2.Rows) != 1 || res2.Rows[0][1] == "" || res2.Rows[0][2] == "" {
		t.Errorf("product2 rows = %v, want bound rating+homepage", res2.Rows)
	}
}

func TestOptionalPartialBinding(t *testing.T) {
	aware, direct := newEngines(t)
	// Separate optionals: rating binds (twice), homepage nullifies.
	q := prefix + `SELECT ?rating ?homepage WHERE {
		:product1 :price ?price .
		OPTIONAL { :product1 :rating ?rating . }
		OPTIONAL { :product1 :homepage ?homepage . } }`
	res := assertSameResults(t, q, aware, direct)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2: %v", len(res.Rows), res.Rows)
	}
	for _, r := range res.Rows {
		if r[0] == "" || r[1] != "" {
			t.Errorf("row = %v, want bound rating, null homepage", r)
		}
	}
}

func TestFilterPushdownAndJoinFilter(t *testing.T) {
	aware, direct := newEngines(t)
	// Cheap filter: single variable comparison (pushed into exploration).
	q := prefix + `SELECT ?p ?v WHERE { ?p :price ?v . FILTER (?v > 150) }`
	res := assertSameResults(t, q, aware, direct)
	if len(res.Rows) != 1 || res.Rows[0][0] != iri("product2") {
		t.Errorf("rows = %v, want product2 only", res.Rows)
	}
	// Expensive filter: join condition across two variables (paper Fig 13).
	q2 := prefix + `SELECT ?a ?b WHERE {
		?a :price ?pa . ?b :price ?pb . FILTER (?pa < ?pb) }`
	res2 := assertSameResults(t, q2, aware, direct)
	if len(res2.Rows) != 1 || res2.Rows[0][0] != iri("product1") || res2.Rows[0][1] != iri("product2") {
		t.Errorf("rows = %v, want (product1, product2)", res2.Rows)
	}
}

func TestFilterRegex(t *testing.T) {
	aware, direct := newEngines(t)
	q := prefix + `SELECT ?x WHERE { ?x :name ?n . FILTER regex(?n, "^A") }`
	res := assertSameResults(t, q, aware, direct)
	if len(res.Rows) != 1 || res.Rows[0][0] != iri("alice") {
		t.Errorf("rows = %v, want alice", res.Rows)
	}
}

func TestFilterBoundWithOptional(t *testing.T) {
	aware, direct := newEngines(t)
	// Products without a homepage (negation via !bound).
	q := prefix + `SELECT ?p WHERE {
		?p :price ?v .
		OPTIONAL { ?p :homepage ?h . }
		FILTER (!bound(?h)) }`
	res := assertSameResults(t, q, aware, direct)
	if len(res.Rows) != 1 || res.Rows[0][0] != iri("product1") {
		t.Errorf("rows = %v, want product1", res.Rows)
	}
}

func TestUnion(t *testing.T) {
	aware, direct := newEngines(t)
	q := prefix + `SELECT ?x WHERE {
		{ ?x :memberOf :dept0 . } UNION { ?x :memberOf :dept1 . } }`
	res := assertSameResults(t, q, aware, direct)
	if len(res.Rows) != 4 {
		t.Errorf("union rows = %d, want 4", len(res.Rows))
	}
	// UNION does not deduplicate.
	q2 := prefix + `SELECT ?x WHERE {
		{ ?x :memberOf :dept0 . } UNION { ?x :memberOf :dept0 . } }`
	res2 := assertSameResults(t, q2, aware, direct)
	if len(res2.Rows) != 6 {
		t.Errorf("duplicate union rows = %d, want 6", len(res2.Rows))
	}
	// With DISTINCT they collapse.
	q3 := prefix + `SELECT DISTINCT ?x WHERE {
		{ ?x :memberOf :dept0 . } UNION { ?x :memberOf :dept0 . } }`
	res3 := assertSameResults(t, q3, aware, direct)
	if len(res3.Rows) != 3 {
		t.Errorf("distinct union rows = %d, want 3", len(res3.Rows))
	}
}

func TestVariablePredicate(t *testing.T) {
	aware, _ := newEngines(t)
	q := prefix + `SELECT ?p WHERE { :alice ?p :prof0 . }`
	res, err := aware.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != iri("advisor") {
		t.Errorf("rows = %v, want advisor", res.Rows)
	}
}

func TestVariableTypeExpansion(t *testing.T) {
	aware, direct := newEngines(t)
	q := prefix + `SELECT ?t WHERE { :alice a ?t . }`
	res := assertSameResults(t, q, aware, direct)
	got := map[rdf.Term]bool{}
	for _, r := range res.Rows {
		got[r[0]] = true
	}
	want := []rdf.Term{iri("GraduateStudent"), iri("Student"), iri("Person")}
	if len(res.Rows) != len(want) {
		t.Fatalf("types = %v, want %v", res.Rows, want)
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing type %s", w)
		}
	}
}

func TestVariableTypeJoined(t *testing.T) {
	aware, direct := newEngines(t)
	// Type variable joined with a structural pattern.
	q := prefix + `SELECT ?x ?t WHERE { ?x :advisor :prof0 . ?x a ?t . }`
	res := assertSameResults(t, q, aware, direct)
	// alice and bob each have 3 types.
	if len(res.Rows) != 6 {
		t.Errorf("rows = %d, want 6: %v", len(res.Rows), res.Rows)
	}
}

func TestDistinctLimitOffset(t *testing.T) {
	aware, _ := newEngines(t)
	q := prefix + `SELECT ?y WHERE { ?x :memberOf ?y . }`
	res, err := aware.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	qd := prefix + `SELECT DISTINCT ?y WHERE { ?x :memberOf ?y . }`
	resD, _ := aware.Query(qd)
	if len(resD.Rows) != 2 {
		t.Errorf("distinct rows = %d, want 2", len(resD.Rows))
	}
	ql := prefix + `SELECT ?y WHERE { ?x :memberOf ?y . } LIMIT 3`
	resL, _ := aware.Query(ql)
	if len(resL.Rows) != 3 {
		t.Errorf("limit rows = %d, want 3", len(resL.Rows))
	}
	qo := prefix + `SELECT ?y WHERE { ?x :memberOf ?y . } LIMIT 3 OFFSET 3`
	resO, _ := aware.Query(qo)
	if len(resO.Rows) != 1 {
		t.Errorf("offset rows = %d, want 1", len(resO.Rows))
	}
}

func TestDisconnectedBGPCrossProduct(t *testing.T) {
	aware, direct := newEngines(t)
	// Two independent patterns: 2 universities x 2 products = 4 rows.
	q := prefix + `SELECT ?u ?p WHERE { ?u a :University . ?p :price ?v . }`
	res := assertSameResults(t, q, aware, direct)
	if len(res.Rows) != 4 {
		t.Errorf("cross product rows = %d, want 4", len(res.Rows))
	}
	// Count fast path must agree (product of component counts).
	n, err := aware.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("count = %d, want 4", n)
	}
}

func TestSharedPredicateVarAcrossComponents(t *testing.T) {
	aware, _ := newEngines(t)
	// ?p must bind the same predicate in both components.
	q := prefix + `SELECT ?p WHERE { :alice ?p :dept0 . :carol ?p :dept1 . }`
	res, err := aware.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != iri("memberOf") {
		t.Errorf("rows = %v, want memberOf", res.Rows)
	}
	n, _ := aware.Count(q)
	if n != 1 {
		t.Errorf("count = %d, want 1", n)
	}
}

func TestUnknownTermsYieldEmpty(t *testing.T) {
	aware, direct := newEngines(t)
	for _, q := range []string{
		prefix + `SELECT ?x WHERE { ?x a :Nonexistent . }`,
		prefix + `SELECT ?x WHERE { ?x :noSuchPredicate ?y . }`,
		prefix + `SELECT ?x WHERE { :ghost :memberOf ?x . }`,
	} {
		res := assertSameResults(t, q, aware, direct)
		if len(res.Rows) != 0 {
			t.Errorf("rows = %d, want 0 for %s", len(res.Rows), q)
		}
		n, err := aware.Count(q)
		if err != nil || n != 0 {
			t.Errorf("count = %d (%v), want 0 for %s", n, err, q)
		}
	}
}

func TestNestedOptional(t *testing.T) {
	aware, direct := newEngines(t)
	q := prefix + `SELECT ?x ?r ?h WHERE {
		?x :price ?v .
		OPTIONAL {
			?x :rating ?r .
			OPTIONAL { ?x :homepage ?h . }
		} }`
	res := assertSameResults(t, q, aware, direct)
	// product1: ratings 5,1 (homepage null); product2: rating 3 + homepage.
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3: %v", len(res.Rows), res.Rows)
	}
}

func TestProjectionMissingVar(t *testing.T) {
	aware, _ := newEngines(t)
	// Projecting a variable that never occurs yields empty column.
	q := prefix + `SELECT ?x ?ghost WHERE { ?x a :University . }`
	res, err := aware.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[1] != "" {
			t.Errorf("ghost bound: %v", r)
		}
	}
}

func TestEmptyGroupPattern(t *testing.T) {
	aware, _ := newEngines(t)
	res, err := aware.Query(`SELECT ?x WHERE { }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("empty group rows = %d, want 1 (empty solution)", len(res.Rows))
	}
	n, _ := aware.Count(`SELECT ?x WHERE { }`)
	if n != 1 {
		t.Errorf("empty group count = %d, want 1", n)
	}
}

func TestIsomorphismSemanticsToggle(t *testing.T) {
	aware, _ := newEngines(t)
	// Homomorphism allows ?a and ?b to be the same advisor-sharing student.
	q := prefix + `SELECT ?a ?b WHERE { ?a :advisor ?p . ?b :advisor ?p . }`
	nHom, err := aware.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if nHom != 4 { // (alice,alice),(alice,bob),(bob,alice),(bob,bob)
		t.Errorf("hom count = %d, want 4", nHom)
	}
	aware.SetSemantics(core.Isomorphism)
	defer aware.SetSemantics(core.Homomorphism)
	nIso, err := aware.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	// Injectivity also applies to ?p, but prof0 is shared; (a,b) pairs with
	// a != b and both != prof0: (alice,bob),(bob,alice).
	if nIso != 2 {
		t.Errorf("iso count = %d, want 2", nIso)
	}
}

func TestParallelQueryAgrees(t *testing.T) {
	ts := uniTriples()
	opts := core.Optimized()
	opts.Workers = 4
	par := New(transform.Build(ts, transform.TypeAware), opts)
	seq := New(transform.Build(ts, transform.TypeAware), core.Optimized())
	q := prefix + `SELECT ?x ?y WHERE { ?x a :Person . ?x :memberOf ?y . }`
	a, err := par.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := seq.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := rowsKey(a), rowsKey(b)
	if fmt.Sprint(ka) != fmt.Sprint(kb) {
		t.Errorf("parallel rows differ:\n%v\n%v", ka, kb)
	}
}

func TestQuerySyntaxErrorSurfaces(t *testing.T) {
	aware, _ := newEngines(t)
	if _, err := aware.Query("SELECT bogus"); err == nil {
		t.Error("syntax error not surfaced")
	}
	if _, err := aware.Count("SELECT bogus"); err == nil {
		t.Error("syntax error not surfaced from Count")
	}
}

// TestWildcardPredicateIncludesType checks the simple-entailment behaviour
// of variable predicates under the type-aware transformation: a wildcard
// predicate must also bind rdf:type with the object drawn from the
// subject's direct type set (paper §4.2, Lsimple), even though the
// transformed graph has no rdf:type edges.
func TestWildcardPredicateIncludesType(t *testing.T) {
	aware, direct := newEngines(t)
	q := prefix + `SELECT ?p ?o WHERE { :alice ?p ?o . }`
	// alice: 3 type triples + memberOf + undergraduateDegreeFrom + name +
	// advisor.
	for _, e := range []*Engine{aware, direct} {
		n, err := e.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if n != 7 {
			t.Errorf("alice wildcard count = %d, want 7", n)
		}
	}
}

// TestWildcardPredicateTypeObjectConstant pins the object of a wildcard
// predicate to a class term: only the rdf:type binding can satisfy it under
// the type-aware transformation.
func TestWildcardPredicateTypeObjectConstant(t *testing.T) {
	aware, _ := newEngines(t)
	res, err := aware.Query(prefix + `SELECT ?p WHERE { :alice ?p :Student . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != rdf.TypeTerm {
		t.Fatalf("rows = %v, want one rdf:type binding", res.Rows)
	}
}

// TestWildcardPredicateSubjectScan leaves every position variable except
// the predicate's object join: all entities with any type.
func TestWildcardPredicateSubjectScan(t *testing.T) {
	aware, direct := newEngines(t)
	q := prefix + `SELECT ?s ?o WHERE { ?s ?p ?o . ?o :subOrganizationOf :univ0 . }`
	a, err := aware.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	d, err := direct.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if a != d {
		t.Fatalf("type-aware %d != direct %d", a, d)
	}
}

// starEngine builds a dataset of hubs with repeated-predicate fanout — the
// NEC shape — and returns engines with the reduction on and off.
func starEngine(t *testing.T, nec core.Opts) *Engine {
	t.Helper()
	var ts []rdf.Triple
	for h := 0; h < 6; h++ {
		hub := iri(fmt.Sprintf("hub%d", h))
		ts = append(ts, rdf.Triple{S: hub, P: rdf.TypeTerm, O: iri("Hub")})
		for f := 0; f <= h; f++ {
			ts = append(ts, rdf.Triple{S: hub, P: iri("knows"), O: iri(fmt.Sprintf("friend%d_%d", h, f))})
		}
	}
	return New(transform.Build(ts, transform.TypeAware), nec)
}

// TestNECSPARQLStar proves the SPARQL layer projects NEC expansions into
// identical bindings with the reduction on and off: repeated-predicate star
// patterns compile to equivalent query vertices that core merges, and the
// expanded matches must restore every projected variable.
func TestNECSPARQLStar(t *testing.T) {
	on := core.Optimized()
	off := core.Optimized()
	off.NoNEC = true
	eOn, eOff := starEngine(t, on), starEngine(t, off)

	queries := []string{
		`SELECT ?h ?a ?b WHERE { ?h a :Hub . ?h :knows ?a . ?h :knows ?b . }`,
		`SELECT ?h ?a ?b ?c WHERE { ?h :knows ?a . ?h :knows ?b . ?h :knows ?c . }`,
		`SELECT ?h ?a WHERE { ?h :knows ?a . ?h :knows ?b . FILTER(?a != ?b) }`,
		`SELECT DISTINCT ?a WHERE { :hub3 :knows ?a . :hub3 :knows ?b . }`,
	}
	for _, q := range queries {
		assertSameResults(t, prefix+q, eOn, eOff)
		nOn, err := eOn.Count(prefix + q)
		if err != nil {
			t.Fatal(err)
		}
		nOff, err := eOff.Count(prefix + q)
		if err != nil {
			t.Fatal(err)
		}
		if nOn != nOff {
			t.Fatalf("count differs for %s: NEC on %d, off %d", q, nOn, nOff)
		}
	}
}

// TestNECSPARQLStarProfiled asserts the reduction is actually active on the
// SPARQL path — the streamed matcher reports merged classes and skipped
// expansions for a star query.
func TestNECSPARQLStarProfiled(t *testing.T) {
	eng := starEngine(t, core.Optimized())
	pq, err := eng.Prepare(prefix + `SELECT ?h ?a ?b ?c WHERE { ?h :knows ?a . ?h :knows ?b . ?h :knows ?c . }`)
	if err != nil {
		t.Fatal(err)
	}
	var prof core.ProfileResult
	rows := pq.SelectProfiled(context.Background(), &prof)
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	if n == 0 {
		t.Fatal("no rows")
	}
	if prof.NECClasses != 1 || prof.NECMergedVertices != 2 {
		t.Fatalf("NEC counters = %+v, want 1 class / 2 merged", prof)
	}
	if prof.NECExpansionsSkipped == 0 {
		t.Fatalf("expansions skipped = 0: %+v", prof)
	}
}

// TestDefaultWorkersParallel pins the out-of-the-box parallelism contract:
// an engine built with Workers == 0 resolves to runtime.GOMAXPROCS and its
// materialized execution equals sequential execution row for row, under a
// SPARQL LIMIT or not.
func TestDefaultWorkersParallel(t *testing.T) {
	ts := uniTriples()
	auto := New(transform.Build(ts, transform.TypeAware), core.Optimized())
	if w := runtime.GOMAXPROCS(0); auto.opts.Workers != w {
		t.Fatalf("Workers = %d, want GOMAXPROCS default %d", auto.opts.Workers, w)
	}
	// A LIMIT does not force sequential execution: the limited rows are the
	// sequential prefix for any worker count.
	wide := wideEngine(100).Data()
	seqWide := core.Optimized()
	seqWide.Workers = 1
	for _, limit := range []int{1, 5, 17} {
		q := fmt.Sprintf("%s LIMIT %d", wideQuery, limit)
		got, err := New(wide, core.Optimized()).Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(wide, seqWide).Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != limit || len(want.Rows) != limit {
			t.Fatalf("LIMIT %d: %d rows at default workers, %d sequential", limit, len(got.Rows), len(want.Rows))
		}
		for i := range got.Rows {
			if rowString(got.Rows[i]) != rowString(want.Rows[i]) {
				t.Fatalf("LIMIT %d row %d: %v, sequential %v", limit, i, got.Rows[i], want.Rows[i])
			}
		}
	}
	seqOpts := core.Optimized()
	seqOpts.Workers = 1
	seq := New(transform.Build(ts, transform.TypeAware), seqOpts)

	q := prefix + `SELECT ?x ?y WHERE { ?x :memberOf ?y . }`
	ra, err := auto.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := seq.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Rows) != len(rs.Rows) {
		t.Fatalf("rows: auto %d, sequential %d", len(ra.Rows), len(rs.Rows))
	}
	for i := range ra.Rows {
		for j := range ra.Rows[i] {
			if ra.Rows[i][j] != rs.Rows[i][j] {
				t.Fatalf("row %d differs: %v vs %v", i, ra.Rows[i], rs.Rows[i])
			}
		}
	}
}
