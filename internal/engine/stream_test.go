package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/transform"
)

const streamPrefix = `PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX : <http://example.org/>
`

// streamShapes covers every query shape the cursor must handle: pure BGP,
// pushed and post filters, OPTIONAL, UNION, predicate variables, and each
// solution modifier (DISTINCT streams incrementally, ORDER BY buffers).
var streamShapes = []struct {
	name  string
	query string
}{
	{"bgp", `SELECT ?x ?y WHERE { ?x :memberOf ?y . }`},
	{"join", `SELECT ?x ?u WHERE { ?x :memberOf ?d . ?d :subOrganizationOf ?u . ?x :undergraduateDegreeFrom ?u . }`},
	{"filter", `SELECT ?x ?r WHERE { ?x :rating ?r . FILTER(?r > 2) }`},
	{"optional", `SELECT ?x ?h WHERE { ?x rdf:type :Product . OPTIONAL { ?x :homepage ?h . } }`},
	{"union", `SELECT ?x WHERE { { ?x rdf:type :Professor . } UNION { ?x rdf:type :University . } }`},
	{"predvar", `SELECT ?p ?o WHERE { :alice ?p ?o . }`},
	{"distinct", `SELECT DISTINCT ?y WHERE { ?x :advisor ?y . }`},
	{"orderby", `SELECT ?x ?r WHERE { ?x :rating ?r . } ORDER BY DESC(?r)`},
	{"limitoffset", `SELECT ?x WHERE { ?x rdf:type :Student . } LIMIT 2 OFFSET 1`},
	{"typevar", `SELECT ?t WHERE { :alice rdf:type ?t . }`},
	{"empty", `SELECT ?x WHERE { ?x rdf:type :Nothing . }`},
}

// drain pulls every row out of a cursor.
func drain(t *testing.T, rows *Rows) [][]rdf.Term {
	t.Helper()
	var out [][]rdf.Term
	for rows.Next() {
		out = append(out, rows.Row())
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("cursor error: %v", err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("close error: %v", err)
	}
	return out
}

func TestSelectMatchesExec(t *testing.T) {
	aware, direct := newEngines(t)
	for _, eng := range []*Engine{aware, direct} {
		for _, tc := range streamShapes {
			t.Run(tc.name, func(t *testing.T) {
				q := streamPrefix + tc.query
				want, err := eng.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				rows, err := eng.Select(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				got := drain(t, rows)
				if len(got) != len(want.Rows) {
					t.Fatalf("cursor rows = %d, want %d", len(got), len(want.Rows))
				}
				for i := range got {
					for j := range got[i] {
						if got[i][j] != want.Rows[i][j] {
							t.Fatalf("row %d col %d: %q vs %q", i, j, got[i][j], want.Rows[i][j])
						}
					}
				}
			})
		}
	}
}

func TestPreparedReexecution(t *testing.T) {
	aware, _ := newEngines(t)
	pq, err := aware.Prepare(streamPrefix + `SELECT ?x ?d WHERE { ?x :memberOf ?d . }`)
	if err != nil {
		t.Fatal(err)
	}
	first := drain(t, pq.Select(context.Background()))
	if len(first) == 0 {
		t.Fatal("no rows")
	}
	for run := 0; run < 3; run++ {
		again := drain(t, pq.Select(context.Background()))
		if len(again) != len(first) {
			t.Fatalf("run %d: %d rows, want %d", run, len(again), len(first))
		}
	}
	n, err := pq.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != len(first) {
		t.Fatalf("Count = %d, want %d", n, len(first))
	}
}

// wideEngine builds a dataset with many solutions spread over many candidate
// regions, so early termination has something measurable to skip.
func wideEngine(n int) *Engine {
	var ts []rdf.Triple
	for i := 0; i < n; i++ {
		author := rdf.NewIRI(fmt.Sprintf("http://example.org/author%d", i))
		ts = append(ts, rdf.Triple{S: author, P: rdf.TypeTerm, O: rdf.NewIRI("http://example.org/Author")})
		for j := 0; j < 4; j++ {
			paper := rdf.NewIRI(fmt.Sprintf("http://example.org/paper%d_%d", i, j))
			ts = append(ts, rdf.Triple{S: paper, P: rdf.TypeTerm, O: rdf.NewIRI("http://example.org/Paper")})
			ts = append(ts, rdf.Triple{S: author, P: rdf.NewIRI("http://example.org/wrote"), O: paper})
		}
	}
	return New(transform.Build(ts, transform.TypeAware), core.Optimized())
}

const wideQuery = streamPrefix + `SELECT ?a ?p WHERE { ?a rdf:type :Author . ?a :wrote ?p . }`

// TestCloseShortCircuitsSearch is the early-termination acceptance test:
// closing the cursor after k rows must leave most of the candidate regions
// unexplored, visible through the matcher's effort counters.
func TestCloseShortCircuitsSearch(t *testing.T) {
	eng := wideEngine(300) // 1200 solutions over 300 regions
	pq, err := eng.Prepare(wideQuery)
	if err != nil {
		t.Fatal(err)
	}

	var full core.ProfileResult
	rows := pq.SelectProfiled(context.Background(), &full)
	all := drain(t, rows)
	if len(all) != 1200 {
		t.Fatalf("full enumeration = %d rows, want 1200", len(all))
	}

	var part core.ProfileResult
	rows = pq.SelectProfiled(context.Background(), &part)
	for i := 0; i < 3; i++ {
		if !rows.Next() {
			t.Fatalf("row %d missing: %v", i, rows.Err())
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if rows.Next() {
		t.Fatal("Next after Close returned true")
	}
	if part.Regions == 0 || part.SearchNodes == 0 {
		t.Fatalf("no effort recorded: %+v", part)
	}
	if part.Regions*4 >= full.Regions {
		t.Fatalf("close left too many regions explored: %d of %d", part.Regions, full.Regions)
	}
	if part.SearchNodes*4 >= full.SearchNodes {
		t.Fatalf("close left too many search nodes visited: %d of %d", part.SearchNodes, full.SearchNodes)
	}
}

// TestParallelEngineCursorStreamsOrdered pins the Workers > 1 contract of
// the ordered region pipeline: the cursor yields exactly the sequential row
// sequence, and closing it early abandons the regions beyond the reorder
// window — visible as a profile far below the full run's (though, unlike a
// sequential close, workers may have raced a window ahead).
func TestParallelEngineCursorStreamsOrdered(t *testing.T) {
	var ts []rdf.Triple
	for i := 0; i < 300; i++ {
		author := rdf.NewIRI(fmt.Sprintf("http://example.org/author%d", i))
		ts = append(ts, rdf.Triple{S: author, P: rdf.TypeTerm, O: rdf.NewIRI("http://example.org/Author")})
		for j := 0; j < 4; j++ {
			paper := rdf.NewIRI(fmt.Sprintf("http://example.org/paper%d_%d", i, j))
			ts = append(ts, rdf.Triple{S: paper, P: rdf.TypeTerm, O: rdf.NewIRI("http://example.org/Paper")})
			ts = append(ts, rdf.Triple{S: author, P: rdf.NewIRI("http://example.org/wrote"), O: paper})
		}
	}
	data := transform.Build(ts, transform.TypeAware)
	opts := core.Optimized()
	opts.Workers = 4
	eng := New(data, opts)
	pq, err := eng.Prepare(wideQuery)
	if err != nil {
		t.Fatal(err)
	}

	res, err := pq.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1200 {
		t.Fatalf("parallel Exec = %d rows, want 1200", len(res.Rows))
	}

	// The parallel cursor's row sequence is byte-identical to a sequential
	// engine's over the same snapshot.
	seqOpts := core.Optimized()
	seqOpts.Workers = 1
	seqEng := New(data, seqOpts)
	seqPq, err := seqEng.Prepare(wideQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, seqPq.Select(context.Background()))
	got := drain(t, pq.Select(context.Background()))
	if len(got) != len(want) {
		t.Fatalf("parallel cursor rows = %d, want %d", len(got), len(want))
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("row %d col %d: parallel %q vs sequential %q", i, j, got[i][j], want[i][j])
			}
		}
	}

	var full core.ProfileResult
	drain(t, pq.SelectProfiled(context.Background(), &full))

	var part core.ProfileResult
	rows := pq.SelectProfiled(context.Background(), &part)
	for i := 0; i < 3; i++ {
		if !rows.Next() {
			t.Fatalf("missing row %d: %v", i, rows.Err())
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if part.Regions == 0 {
		t.Fatalf("no effort recorded: %+v", part)
	}
	// Early close may overshoot by the reorder window (2×Workers batches),
	// but must stay well below the full run.
	if part.Regions*2 >= full.Regions {
		t.Fatalf("close left too many regions explored: %d of %d", part.Regions, full.Regions)
	}
	// A fully drained parallel cursor reports the sequential effort totals.
	var seqFull core.ProfileResult
	drain(t, seqPq.SelectProfiled(context.Background(), &seqFull))
	if full.Regions != seqFull.Regions || full.SearchNodes != seqFull.SearchNodes ||
		full.ExploredCandidates != seqFull.ExploredCandidates {
		t.Fatalf("parallel profile %+v != sequential %+v", full, seqFull)
	}
}

func TestSelectContextCancellation(t *testing.T) {
	eng := wideEngine(300)
	pq, err := eng.Prepare(wideQuery)
	if err != nil {
		t.Fatal(err)
	}

	// Already-cancelled context: no rows, prompt ctx.Err.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows := pq.Select(ctx)
	n := 0
	for rows.Next() {
		n++
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", rows.Err())
	}
	rows.Close()

	// Cancellation mid-iteration: iteration ends with ctx.Err and most of
	// the result set unvisited.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	rows = pq.Select(ctx)
	seen := 0
	for rows.Next() {
		seen++
		if seen == 2 {
			cancel()
		}
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("mid-iteration Err = %v, want context.Canceled", rows.Err())
	}
	if seen >= 1200 {
		t.Fatalf("cancellation did not stop enumeration (saw %d rows)", seen)
	}
	if err := rows.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close after cancel = %v, want context.Canceled", err)
	}

	// Count with a cancelled context propagates too (fast path included).
	if _, err := pq.Count(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Count err = %v, want context.Canceled", err)
	}
}

// TestCursorLifetime pins the cursor's teardown and end-of-stream contracts
// at Workers 1 and 4: Close releases every goroutine the execution started,
// whether the cursor was never advanced, advanced once or advanced k rows;
// and a cursor drained to the end before its context is cancelled has
// succeeded — a further Next reports no error.
func TestCursorLifetime(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			eng := wideEngine(300)
			eng.opts.Workers = workers
			pq, err := eng.Prepare(wideQuery)
			if err != nil {
				t.Fatal(err)
			}

			base := runtime.NumGoroutine()
			for _, k := range []int{0, 1, 7} {
				rows := pq.Select(context.Background())
				for i := 0; i < k; i++ {
					if !rows.Next() {
						t.Fatalf("k=%d: row %d missing: %v", k, i, rows.Err())
					}
				}
				if err := rows.Close(); err != nil {
					t.Fatalf("k=%d: close: %v", k, err)
				}
				n := runtime.NumGoroutine()
				for try := 0; try < 1000 && n > base; try++ {
					runtime.Gosched()
					n = runtime.NumGoroutine()
				}
				if n > base {
					t.Fatalf("k=%d: %d goroutines after Close, baseline %d", k, n, base)
				}
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rows := pq.Select(ctx)
			defer rows.Close()
			for i := 0; i < 1200; i++ {
				if !rows.Next() {
					t.Fatalf("row %d missing: %v", i, rows.Err())
				}
			}
			cancel()
			if rows.Next() {
				t.Fatal("Next after the last row returned true")
			}
			if err := rows.Err(); err != nil {
				t.Fatalf("completed stream ended with %v after cancel, want nil", err)
			}
		})
	}
}

// TestPreparedConcurrentSelect exercises one PreparedQuery from many
// goroutines (run with -race).
func TestPreparedConcurrentSelect(t *testing.T) {
	eng := wideEngine(50)
	pq, err := eng.Prepare(wideQuery)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	counts := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rows := pq.Select(context.Background())
			defer rows.Close()
			for rows.Next() {
				counts[w]++
			}
			errs[w] = rows.Err()
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if counts[w] != 200 {
			t.Fatalf("worker %d saw %d rows, want 200", w, counts[w])
		}
	}
}

func TestRowsScan(t *testing.T) {
	aware, _ := newEngines(t)
	rows, err := aware.Select(context.Background(), streamPrefix+`SELECT ?x ?d WHERE { ?x :memberOf ?d . }`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var x, d rdf.Term
	if err := rows.Scan(&x, &d); err == nil {
		t.Fatal("Scan before Next should fail")
	}
	if !rows.Next() {
		t.Fatal("no rows")
	}
	if err := rows.Scan(&x); err == nil {
		t.Fatal("Scan with wrong arity should fail")
	}
	if err := rows.Scan(&x, &d); err != nil {
		t.Fatal(err)
	}
	if x == "" || d == "" {
		t.Fatalf("scanned empty terms: %q %q", x, d)
	}
}
