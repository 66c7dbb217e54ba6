package bench

// Cross-engine differential tests: four independent implementations — the
// TurboHOM++ matcher under both transformations, the six-permutation
// merge-join engine, and the bitmap-index engine — must agree on the
// solution count of every benchmark query, and on BSBM the matcher and the
// bitmap-index engine must agree on the rows themselves. This is the repository's
// strongest end-to-end correctness check: the engines share no evaluation
// code (the matcher explores graphs; the baselines scan and join indexes).

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/baseline/bitmat"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/transform"
)

// diffEngines builds the comparison set for a BGP workload.
func diffEngines(ds *datagen.Dataset) []QueryEngine {
	return []QueryEngine{
		TurboPlusPlus(ds.Triples),
		NewTurbo("TurboHOM-direct", ds.Triples, transform.Direct, core.Baseline()),
		NewBitMat(ds.Triples),
		NewRDF3X(ds.Triples),
	}
}

func assertAgreement(t *testing.T, ds *datagen.Dataset, engines []QueryEngine) {
	t.Helper()
	for _, q := range ds.Queries {
		want := -1
		wantEngine := ""
		for _, e := range engines {
			n, err := e.Count(q.Text)
			if err != nil {
				t.Errorf("%s %s on %s: %v", ds.Name, e.Name(), q.ID, err)
				continue
			}
			if want == -1 {
				want, wantEngine = n, e.Name()
				continue
			}
			if n != want {
				t.Errorf("%s %s: %s says %d, %s says %d",
					ds.Name, q.ID, wantEngine, want, e.Name(), n)
			}
		}
	}
}

func TestDifferentialLUBM(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-engine differential")
	}
	ds := datagen.LUBMDataset(1)
	assertAgreement(t, ds, diffEngines(ds))
}

func TestDifferentialYAGO(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-engine differential")
	}
	ds := datagen.YAGODataset(600)
	assertAgreement(t, ds, diffEngines(ds))
}

func TestDifferentialBTC(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-engine differential")
	}
	ds := datagen.BTCDataset(600)
	assertAgreement(t, ds, diffEngines(ds))
}

// TestDifferentialBSBM compares answers, not counts, on BSBM — the one
// generated workload that reaches the engine's OPTIONAL evaluator (OPTIONAL,
// nested OPTIONAL, !bound, UNION, FILTER). Every query's sorted projected
// row multiset from TurboHOM++, under both transformations and Workers 1
// and 2, must equal bitmat's, which evaluates the same query as relational
// joins and left joins over bitmap indexes.
func TestDifferentialBSBM(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-engine differential")
	}
	ds := datagen.BSBMDataset(120)
	ref := bitmat.Load(ds.Triples)
	want := make(map[string][]string, len(ds.Queries))
	for _, q := range ds.Queries {
		_, rows, err := ref.Query(q.Text)
		if err != nil {
			t.Fatalf("bitmat %s: %v", q.ID, err)
		}
		want[q.ID] = sortedRowKeys(rows)
	}
	for _, cfg := range []struct {
		mode transform.Mode
		opts core.Opts
	}{{transform.TypeAware, core.Optimized()}, {transform.Direct, core.Baseline()}} {
		data := transform.Build(ds.Triples, cfg.mode)
		for _, workers := range []int{1, 2} {
			opts := cfg.opts
			opts.Workers = workers
			e := engine.New(data, opts)
			for _, q := range ds.Queries {
				res, err := e.Query(q.Text)
				if err != nil {
					t.Fatalf("%s/workers=%d %s: %v", cfg.mode, workers, q.ID, err)
				}
				if got := sortedRowKeys(res.Rows); !slices.Equal(got, want[q.ID]) {
					t.Errorf("%s/workers=%d %s: rows differ from bitmat\n got %q\nwant %q",
						cfg.mode, workers, q.ID, got, want[q.ID])
				}
			}
		}
	}
}

// sortedRowKeys renders rows as sorted keys: a row multiset in comparable
// form.
func sortedRowKeys(rows [][]rdf.Term) []string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		var b strings.Builder
		for _, t := range row {
			b.WriteString(string(t))
			b.WriteByte('\x1f')
		}
		keys[i] = b.String()
	}
	slices.Sort(keys)
	return keys
}

// TestDifferentialParallelWorkers re-runs the LUBM workload with parallel
// matching: worker count must never change a solution count.
func TestDifferentialParallelWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-engine differential")
	}
	ds := datagen.LUBMDataset(1)
	seq := TurboPlusPlus(ds.Triples)
	parOpts := core.Optimized()
	parOpts.Workers = 4
	par := NewTurbo("TurboHOM++(4)", ds.Triples, transform.TypeAware, parOpts)
	for _, q := range ds.Queries {
		a, err := seq.Count(q.Text)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.Count(q.Text)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: sequential %d vs parallel %d", q.ID, a, b)
		}
	}
}

// TestDifferentialOptimizationCombos checks that every combination of the
// four optimizations preserves LUBM solution counts (the optimizations must
// be pure performance changes).
func TestDifferentialOptimizationCombos(t *testing.T) {
	if testing.Short() {
		t.Skip("16-combo sweep")
	}
	ds := datagen.LUBMDataset(1)
	data := transform.Build(ds.Triples, transform.TypeAware)
	ref := TurboPlusPlus(ds.Triples)

	// Spot-check the heavy queries with every optimization mask; the full
	// workload with the default masks is covered elsewhere.
	heavy := []string{"Q2", "Q8", "Q9", "Q12"}
	for mask := 0; mask < 16; mask++ {
		opts := core.Opts{
			Intersect:  mask&1 != 0,
			NoNLF:      mask&2 != 0,
			NoDegree:   mask&4 != 0,
			ReuseOrder: mask&8 != 0,
		}
		e := engine.New(data, opts)
		for _, id := range heavy {
			q := datagen.LUBMQuery(id)
			want, err := ref.Count(q.Text)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Count(q.Text)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("mask %04b %s: %d, want %d", mask, id, got, want)
			}
		}
	}
}

// TestQueriesParse ensures every workload query parses (guarding the query
// text against typos that only a specific engine would notice).
func TestQueriesParse(t *testing.T) {
	all := [][]datagen.Query{
		datagen.LUBMQueries(), datagen.BSBMQueries(),
		datagen.YAGOQueries(), datagen.BTCQueries(),
	}
	tiny := datagen.LUBMDataset(1)
	e := TurboPlusPlus(tiny.Triples)
	for _, qs := range all {
		for _, q := range qs {
			if _, err := e.Count(q.Text); err != nil && !strings.Contains(err.Error(), "disconnected") {
				t.Errorf("%s: %v", q.ID, err)
			}
		}
	}
}
