package main

import (
	"bytes"
	"fmt"
	"net/url"
	"sort"
	"strings"

	"repro/internal/datagen"
	"repro/internal/rdf"
)

// defaultScale is LUBM-50 cut to keptDepts departments per university: about
// 0.55 M triples after materialization, which keeps three set-ups plus the
// correctness gate inside one run's time share.
const defaultScale = 50

// keptDepts is how many departments of each university the benchmark keeps:
// the generator's minimum. It draws 5 to 8 per university, which makes the
// dataset's size swing by several percent from seed to seed; with the count
// fixed, every seed gives the same number of departments (and so of query
// texts), and metrics that follow the data's size stay comparable across
// seeds.
const keptDepts = 5

// inputs is everything a run derives from its seed before the system under
// test sees anything: the triples, the population of query texts, and the
// department the update schedule writes into.
type inputs struct {
	seed    int64
	triples []rdf.Triple
	depts   []deptID
	pop     []popEntry
	byTmpl  map[string][]int // template id -> indexes into pop
	heavy   map[string]string
	// churnDept receives every inserted graduate student; read schedules of
	// store_churn stay away from it and from its university, so their row
	// counts do not move under the updates.
	churnDept deptID
	// advisor and course of an inserted student are chosen so that the
	// advisor does not teach the course: LUBM Q9's triangle (student,
	// advisor, course) must not gain rows from an insert.
	churnAdvisor, churnCourse rdf.Term
}

type deptID struct{ u, d int }

func (d deptID) iri() string {
	return fmt.Sprintf("http://www.Department%d.University%d.edu", d.d, d.u)
}

// popEntry is one instantiated query template.
type popEntry struct {
	text string
	u, d int // d < 0: the constant is a university, not a department
}

// selective are the eight constant-solution LUBM templates; extra adds the
// two larger university-keyed ones serve_zipf and store_churn also draw from.
var (
	selective = []string{"Q1", "Q3", "Q4", "Q5", "Q7", "Q10", "Q11", "Q12"}
	extra     = []string{"Q8", "Q13"}
	heavyIDs  = []string{"Q2", "Q6", "Q9", "Q13", "Q14"}
)

// constKind says what a template's constant names, and therefore how many
// instantiations one department or university yields.
type constKind int

const (
	kDept constKind = iota
	kUniv
	kGradCourse
	kAnyCourse
	kFaculty
)

var templateConst = map[string]struct {
	base string
	kind constKind
}{
	"Q1":  {"http://www.Department0.University0.edu/GraduateCourse0", kGradCourse},
	"Q3":  {"http://www.Department0.University0.edu/AssistantProfessor0", kFaculty},
	"Q4":  {"http://www.Department0.University0.edu", kDept},
	"Q5":  {"http://www.Department0.University0.edu", kDept},
	"Q7":  {"http://www.Department0.University0.edu/AssociateProfessor0", kFaculty},
	"Q8":  {"http://www.University0.edu", kUniv},
	"Q10": {"http://www.Department0.University0.edu/GraduateCourse0", kAnyCourse},
	"Q11": {"http://www.University0.edu", kUniv},
	"Q12": {"http://www.University0.edu", kUniv},
	"Q13": {"http://www.University0.edu", kUniv},
}

// Entities every generated department is guaranteed to have (the generator's
// minimum cardinalities): 3 full, 4 associate, 3 assistant professors and 2
// lecturers, each teaching at least one course of either kind.
var facultyNames = []string{
	"FullProfessor0", "FullProfessor1", "FullProfessor2",
	"AssociateProfessor0", "AssociateProfessor1", "AssociateProfessor2", "AssociateProfessor3",
	"AssistantProfessor0", "AssistantProfessor1", "AssistantProfessor2",
	"Lecturer0", "Lecturer1",
}

const guaranteedCourses = 12

// lubmRefPool is the generator's default pool of universities that
// degreeFrom predicates reference, independent of the scale factor.
const lubmRefPool = 50

func (k constKind) suffixes() []string {
	var out []string
	switch k {
	case kGradCourse, kAnyCourse:
		for i := 0; i < guaranteedCourses; i++ {
			out = append(out, fmt.Sprintf("/GraduateCourse%d", i))
		}
		if k == kAnyCourse {
			for i := 0; i < guaranteedCourses; i++ {
				out = append(out, fmt.Sprintf("/Course%d", i))
			}
		}
	case kFaculty:
		for _, f := range facultyNames {
			out = append(out, "/"+f)
		}
	}
	return out
}

// generate builds the inputs for seed at the given LUBM scale.
func generate(seed int64, scale int) *inputs {
	in := &inputs{seed: seed, byTmpl: map[string][]int{}, heavy: map[string]string{}}
	raw := datagen.LUBM(datagen.LUBMConfig{Universities: scale, Seed: seed})
	kept := raw[:0]
	size := map[deptID]int{}
	for _, t := range raw {
		// Everything a department owns has the department's IRI as the prefix
		// of its subject.
		id, ok := deptOf(t.S)
		if ok && id.d >= keptDepts {
			continue
		}
		if ok {
			size[id]++
		}
		kept = append(kept, t)
	}
	in.triples = datagen.Materialize(kept, datagen.LUBMRules())
	for u := 0; u < scale; u++ {
		for d := 0; d < keptDepts; d++ {
			in.depts = append(in.depts, deptID{u, d})
		}
	}

	for _, q := range datagen.LUBMQueries() {
		tc, ok := templateConst[q.ID]
		if !ok {
			continue
		}
		add := func(u, d int, iri string) {
			in.byTmpl[q.ID] = append(in.byTmpl[q.ID], len(in.pop))
			in.pop = append(in.pop, popEntry{
				u: u, d: d,
				text: strings.Replace(q.Text, "<"+tc.base+">", "<"+iri+">", 1),
			})
		}
		switch tc.kind {
		case kUniv:
			n := scale
			if q.ID == "Q13" {
				n = lubmRefPool
			}
			for u := 0; u < n; u++ {
				add(u, -1, fmt.Sprintf("http://www.University%d.edu", u))
			}
		case kDept:
			for _, id := range in.depts {
				add(id.u, id.d, id.iri())
			}
		default:
			for _, id := range in.depts {
				for _, s := range tc.kind.suffixes() {
					add(id.u, id.d, id.iri()+s)
				}
			}
		}
	}
	for _, id := range heavyIDs {
		in.heavy[id] = datagen.LUBMQuery(id).Text
	}

	// The updates go to the department of median size: what an update costs
	// follows the degree of the vertices it touches, and a department drawn
	// at random would make that cost differ from seed to seed.
	bySize := append([]deptID(nil), in.depts...)
	sort.SliceStable(bySize, func(i, j int) bool { return size[bySize[i]] < size[bySize[j]] })
	in.churnDept = bySize[len(bySize)/2]
	in.pickAdvisorAndCourse()
	return in
}

// deptOf parses a term "<http://www.Department{d}.University{u}.edu...".
func deptOf(t rdf.Term) (id deptID, ok bool) {
	rest, ok := strings.CutPrefix(string(t), "<http://www.Department")
	if !ok {
		return id, false
	}
	number := func() (n int) {
		for len(rest) > 0 && rest[0] >= '0' && rest[0] <= '9' {
			n = n*10 + int(rest[0]-'0')
			rest = rest[1:]
		}
		return n
	}
	id.d = number()
	if rest, ok = strings.CutPrefix(rest, ".University"); !ok {
		return id, false
	}
	id.u = number()
	return id, true
}

// pickAdvisorAndCourse fixes the advisor (the department's FullProfessor0)
// and a graduate course that advisor does not teach.
func (in *inputs) pickAdvisorAndCourse() {
	dept := in.churnDept.iri()
	in.churnAdvisor = rdf.NewIRI(dept + "/FullProfessor0")
	teacherOf := rdf.NewIRI(datagen.UB + "teacherOf")
	taught := map[rdf.Term]bool{}
	for _, t := range in.triples {
		if t.P == teacherOf && t.S == in.churnAdvisor {
			taught[t.O] = true
		}
	}
	for i := 0; i < guaranteedCourses; i++ {
		c := rdf.NewIRI(fmt.Sprintf("%s/GraduateCourse%d", dept, i))
		if !taught[c] {
			in.churnCourse = c
			return
		}
	}
	panic("benchmark: FullProfessor0 teaches every guaranteed graduate course")
}

// ntriples serializes the input triples the way the CLI would read them.
func (in *inputs) ntriples() ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(len(in.triples) * 160)
	if err := rdf.WriteAll(&buf, in.triples); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// touchesChurn reports whether a query's constant lies in the department or
// university the update schedule writes into.
func (in *inputs) touchesChurn(p popEntry) bool {
	return p.u == in.churnDept.u && (p.d < 0 || p.d == in.churnDept.d)
}

// probeText is store_churn's own read: the graduate students of the
// department the updates go to. Its row count is base + live inserts.
func (in *inputs) probeText() string {
	return fmt.Sprintf(`PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
SELECT ?X WHERE {
	?X rdf:type ub:GraduateStudent .
	?X ub:memberOf <%s> . }`, in.churnDept.iri())
}

// studentTriples are the eight triples of benchmark student n. Every
// existing vertex they touch belongs to the churn department or is its
// university: a snapshot after an update regroups the adjacency of every
// vertex the delta touches, so each further hub would be paid on every
// later update until the next compaction.
func (in *inputs) studentTriples(n int) []rdf.Triple {
	dept := in.churnDept
	s := rdf.NewIRI(fmt.Sprintf("%s/BenchGraduateStudent%d", dept.iri(), n))
	ub := func(local string) rdf.Term { return rdf.NewIRI(datagen.UB + local) }
	return []rdf.Triple{
		{S: s, P: rdf.TypeTerm, O: ub("GraduateStudent")},
		{S: s, P: ub("memberOf"), O: rdf.NewIRI(dept.iri())},
		{S: s, P: ub("name"), O: rdf.NewLiteral(fmt.Sprintf("BenchGraduateStudent%d", n))},
		{S: s, P: ub("emailAddress"), O: rdf.NewLiteral(fmt.Sprintf("BenchGraduateStudent%d@Department%d.University%d.edu", n, dept.d, dept.u))},
		{S: s, P: ub("telephone"), O: rdf.NewLiteral(fmt.Sprintf("xxx-xxx-%04d", n%10000))},
		{S: s, P: ub("undergraduateDegreeFrom"), O: rdf.NewIRI(fmt.Sprintf("http://www.University%d.edu", dept.u))},
		{S: s, P: ub("advisor"), O: in.churnAdvisor},
		{S: s, P: ub("takesCourse"), O: in.churnCourse},
	}
}

// updateText renders INSERT DATA or DELETE DATA for benchmark student n.
func (in *inputs) updateText(insert bool, n int) string {
	var b strings.Builder
	if insert {
		b.WriteString("INSERT DATA {\n")
	} else {
		b.WriteString("DELETE DATA {\n")
	}
	for _, t := range in.studentTriples(n) {
		fmt.Fprintf(&b, "%s %s %s .\n", t.S, t.P, t.O)
	}
	b.WriteString("}")
	return b.String()
}

// formBody is the urlencoded POST body of a protocol query.
func formBody(query string) string {
	return url.Values{"query": {query}}.Encode()
}
