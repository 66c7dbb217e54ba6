package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/transform"
)

// rowString flattens a projected row for byte-level comparison.
func rowString(row []rdf.Term) string {
	s := ""
	for _, t := range row {
		s += string(t) + "\x1f"
	}
	return s
}

// workerCounts is the differential matrix from the issue: sequential, the
// smallest parallel configuration, and everything the box has.
func workerCounts() []int {
	ws := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n > 2 {
		ws = append(ws, n)
	} else {
		ws = append(ws, 4) // still exercises the pipeline on small boxes
	}
	return ws
}

// TestSelectWorkersDifferential is the engine-layer acceptance test: for
// every streaming query shape, Select must yield byte-identical row
// sequences for Workers ∈ {1, 2, GOMAXPROCS}, across both semantics and
// with the NEC reduction on and off.
func TestSelectWorkersDifferential(t *testing.T) {
	ts := uniTriples()
	data := transform.Build(ts, transform.TypeAware)
	for _, sem := range []core.Semantics{core.Homomorphism, core.Isomorphism} {
		for _, nec := range []bool{false, true} {
			engines := map[int]*Engine{}
			for _, w := range workerCounts() {
				opts := core.Optimized()
				opts.Workers = w
				opts.NoNEC = nec
				eng := New(data, opts)
				eng.SetSemantics(sem)
				engines[w] = eng
			}
			for _, tc := range streamShapes {
				t.Run(fmt.Sprintf("%v/nec-off=%v/%s", sem, nec, tc.name), func(t *testing.T) {
					q := streamPrefix + tc.query
					var want []string
					for _, w := range workerCounts() {
						rows, err := engines[w].Select(context.Background(), q)
						if err != nil {
							t.Fatal(err)
						}
						var got []string
						for _, row := range drain(t, rows) {
							got = append(got, rowString(row))
						}
						if w == 1 {
							want = got
							continue
						}
						if len(got) != len(want) {
							t.Fatalf("workers=%d: %d rows, want %d", w, len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("workers=%d row %d:\n got %q\nwant %q", w, i, got[i], want[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestSelectWorkersMidStreamClose: pulling k rows then closing must deliver
// the identical k-row prefix for every worker count, with no error, and a
// parallel engine must stop its workers promptly (the drain in Close joins
// the pipeline).
func TestSelectWorkersMidStreamClose(t *testing.T) {
	eng1 := wideEngine(200)
	data := eng1.Data()
	const k = 7
	var want []string
	for _, w := range workerCounts() {
		opts := core.Optimized()
		opts.Workers = w
		eng := New(data, opts)
		pq, err := eng.Prepare(wideQuery)
		if err != nil {
			t.Fatal(err)
		}
		rows := pq.Select(context.Background())
		var got []string
		for i := 0; i < k; i++ {
			if !rows.Next() {
				t.Fatalf("workers=%d: missing row %d: %v", w, i, rows.Err())
			}
			got = append(got, rowString(rows.Row()))
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("workers=%d: close: %v", w, err)
		}
		if rows.Next() {
			t.Fatalf("workers=%d: Next after Close", w)
		}
		if w == 1 {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d row %d: %q, want %q", w, i, got[i], want[i])
			}
		}
	}
}

// TestSelectWorkersCancelPrefix: a context cancelled mid-iteration ends the
// cursor with ctx.Err() on every worker count, and whatever rows arrived
// before the cut form a prefix of the sequential sequence.
func TestSelectWorkersCancelPrefix(t *testing.T) {
	eng1 := wideEngine(200)
	data := eng1.Data()
	seqOpts := core.Optimized()
	seqOpts.Workers = 1
	seqPq, err := New(data, seqOpts).Prepare(wideQuery)
	if err != nil {
		t.Fatal(err)
	}
	var full []string
	for _, row := range drain(t, seqPq.Select(context.Background())) {
		full = append(full, rowString(row))
	}

	for _, w := range workerCounts() {
		opts := core.Optimized()
		opts.Workers = w
		pq, err := New(data, opts).Prepare(wideQuery)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		rows := pq.Select(ctx)
		var got []string
		for rows.Next() {
			got = append(got, rowString(rows.Row()))
			if len(got) == 3 {
				cancel()
			}
		}
		if !errors.Is(rows.Err(), context.Canceled) {
			t.Fatalf("workers=%d: Err = %v, want context.Canceled", w, rows.Err())
		}
		rows.Close()
		cancel()
		if len(got) >= len(full) {
			t.Fatalf("workers=%d: cancellation did not stop enumeration (%d rows)", w, len(got))
		}
		for i := range got {
			if got[i] != full[i] {
				t.Fatalf("workers=%d row %d: %q, want sequential prefix %q", w, i, got[i], full[i])
			}
		}
	}
}

// TestExecWorkersPointScan: parallel Exec of a point-shaped class scan
// (single query vertex, no edges — the shape the type-aware transformation
// creates for `?x rdf:type C`) must materialize distinct rows. Regression:
// the pipeline's point-shape fast path once handed Collect aliased matches,
// collapsing every row to the last candidate.
func TestExecWorkersPointScan(t *testing.T) {
	eng1 := wideEngine(50) // 50 Author vertices
	data := eng1.Data()
	const q = streamPrefix + `SELECT ?a WHERE { ?a rdf:type :Author . }`
	for _, w := range workerCounts() {
		opts := core.Optimized()
		opts.Workers = w
		pq, err := New(data, opts).Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pq.Exec(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 50 {
			t.Fatalf("workers=%d: %d rows, want 50", w, len(res.Rows))
		}
		distinct := map[string]bool{}
		for _, row := range res.Rows {
			distinct[rowString(row)] = true
		}
		if len(distinct) != 50 {
			t.Fatalf("workers=%d: %d distinct rows of %d — aliased matches", w, len(distinct), len(res.Rows))
		}
	}
}

// TestSelectWorkersLimitDeterministic: a query with a SPARQL LIMIT is not
// forced sequential — the pipeline makes the limited rows exactly the
// sequential prefix for any worker count.
func TestSelectWorkersLimitDeterministic(t *testing.T) {
	eng1 := wideEngine(100)
	data := eng1.Data()
	var want []string
	for _, w := range workerCounts() {
		opts := core.Optimized()
		opts.Workers = w
		pq, err := New(data, opts).Prepare(wideQuery + " LIMIT 11")
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, row := range drain(t, pq.Select(context.Background())) {
			got = append(got, rowString(row))
		}
		if len(got) != 11 {
			t.Fatalf("workers=%d: %d rows, want LIMIT 11", w, len(got))
		}
		if w == 1 {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d row %d: %q, want %q", w, i, got[i], want[i])
			}
		}
	}
}

// TestOneCandidateSelectAllocs: a query whose start vertex has one
// candidate runs sequentially at any Workers, so Select plus a full drain
// allocates no more at Workers = 4 than at Workers = 1 — no pipeline, and no
// per-row copy for the consumer.
func TestOneCandidateSelectAllocs(t *testing.T) {
	data := transform.Build(uniTriples(), transform.TypeAware)
	q := streamPrefix + `SELECT ?x WHERE { ?x :memberOf :dept0 . }`
	allocs := map[int]float64{}
	for _, w := range []int{1, 4} {
		opts := core.Optimized()
		opts.Workers = w
		pq, err := New(data, opts).Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		var prof core.ProfileResult
		if rows := drain(t, pq.SelectProfiled(context.Background(), &prof)); len(rows) < 2 || prof.StartCandidates != 1 {
			t.Fatalf("workers=%d: %d rows from %d start candidates, want several rows from one", w, len(rows), prof.StartCandidates)
		}
		allocs[w] = testing.AllocsPerRun(50, func() {
			rows := pq.Select(context.Background())
			for rows.Next() {
			}
			rows.Close()
		})
	}
	if allocs[4] > allocs[1] {
		t.Fatalf("Select+drain allocates %.0f at workers=4, %.0f at workers=1", allocs[4], allocs[1])
	}
}
