package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"

	turbohom "repro"
	"repro/internal/baseline/rdf3x"
	"repro/internal/rdf"
	"repro/internal/server/loadtest"
)

// gateSamples is how many constants of each template the gate checks.
const gateSamples = 8

func storeOf(st stack) *turbohom.Store {
	if h, ok := st.(*httpStack); ok {
		return h.store
	}
	return st.(*libStack).store
}

// gateKeys picks the texts checked before timing: a seeded sample of every
// template, and every text that is not an instantiated template.
func gateKeys(p *prepared) []int {
	if p.groups == nil {
		keys := make([]int, len(p.texts))
		for i := range keys {
			keys[i] = i
		}
		return keys
	}
	r := rand.New(rand.NewSource(p.in.seed*53 + 1))
	var keys []int
	grouped := 0
	for _, g := range p.groups {
		grouped += len(g)
		for i := 0; i < gateSamples; i++ {
			keys = append(keys, g[r.Intn(len(g))])
		}
	}
	for k := grouped; k < len(p.texts); k++ {
		keys = append(keys, k)
	}
	return keys
}

// runGate checks answers before anything is timed. Every sampled text's row
// count through the stack must equal the count of the RDF-3X-style baseline,
// an engine that shares no matching code with the store, over the same
// triples; over HTTP the decoded document must also equal the in-process
// cursor row for row. It returns the checks made and the probe's base count.
func runGate(ctx context.Context, p *prepared, st stack, fails *failures) (attempted, probeBase int) {
	base := rdf3x.Load(p.in.triples)
	store := storeOf(st)
	h, overHTTP := st.(*httpStack)
	for _, key := range gateKeys(p) {
		attempted++
		text := p.texts[key]
		want, err := base.Count(text)
		if err != nil {
			fails.add("gate: baseline on text %d: %v", key, err)
			continue
		}
		rows, _, err := st.query(ctx, key)
		if err != nil || rows != want {
			fails.add("gate: text %d: %d rows (err %v), baseline counts %d", key, rows, err, want)
			continue
		}
		if !overHTTP {
			continue
		}
		attempted++
		if err := sameOverHTTP(ctx, h, store, text); err != nil {
			fails.add("gate: text %d over HTTP: %v", key, err)
		}
	}

	attempted++
	probe := p.in.probeText()
	want, err := base.Count(probe)
	if err != nil {
		fails.add("gate: baseline on probe: %v", err)
	}
	probeBase, err = store.Count(probe)
	if err != nil || probeBase != want {
		fails.add("gate: probe: %d rows (err %v), baseline counts %d", probeBase, err, want)
	}
	return attempted, probeBase
}

// sameOverHTTP compares the fully decoded HTTP result with the in-process
// cursor, in order.
func sameOverHTTP(ctx context.Context, h *httpStack, store *turbohom.Store, text string) error {
	doc, err := loadtest.DoQuery(ctx, h.client, h.base, text, "")
	if err != nil {
		return err
	}
	rows, err := store.Select(ctx, text)
	if err != nil {
		return err
	}
	defer rows.Close()
	if !slices.Equal(doc.Vars, rows.Vars()) {
		return fmt.Errorf("vars %v, in process %v", doc.Vars, rows.Vars())
	}
	n := 0
	for ; rows.Next(); n++ {
		if n >= len(doc.Rows) || !slices.Equal(doc.Rows[n], rows.Row()) {
			return fmt.Errorf("row %d differs from the in-process cursor", n)
		}
	}
	if n != len(doc.Rows) {
		return fmt.Errorf("%d rows, in process %d", len(doc.Rows), n)
	}
	return rows.Err()
}

// verifyUpdates checks, after the last op, that every acknowledged update is
// visible: each live inserted student is a member of the department and each
// deleted one is not. A durable store is checked through a copy of its
// directory taken without Close and reopened — what a killed process would
// leave — so the write-ahead log is what proves the updates.
func verifyUpdates(ctx context.Context, p *prepared, sp *spec, st stack, g *updateGen, probeBase int, fails *failures) (attempted int) {
	store := storeOf(st)
	if sp.durable {
		crash := filepath.Join(p.dir, "crash")
		if err := copyDir(p.snapDir, crash); err != nil {
			fails.add("verify: copying the store directory: %v", err)
			return 1
		}
		reopened, err := turbohom.OpenDir(crash, nil)
		if err != nil {
			fails.add("verify: reopening the copied directory: %v", err)
			return 1
		}
		defer reopened.Close()
		store = reopened
	}
	rows, err := store.Select(ctx, p.in.probeText())
	if err != nil {
		fails.add("verify: probe: %v", err)
		return 1
	}
	defer rows.Close()
	members := map[rdf.Term]bool{}
	for rows.Next() {
		members[rows.Row()[0]] = true
	}
	if err := rows.Err(); err != nil {
		fails.add("verify: probe: %v", err)
	}
	student := func(n int) rdf.Term { return p.in.studentTriples(n)[0].S }
	for _, n := range g.live {
		if !members[student(n)] {
			fails.add("verify: acknowledged insert of student %d is not visible", n)
		}
	}
	for _, n := range g.gone {
		if members[student(n)] {
			fails.add("verify: acknowledged delete of student %d is not visible", n)
		}
	}
	if len(members) != probeBase+len(g.live) {
		fails.add("verify: department has %d graduate students, want %d", len(members), probeBase+len(g.live))
	}
	return len(g.live) + len(g.gone) + 1
}
