package turbohom

import (
	"context"
	"runtime"
	"testing"
)

// totalAlloc reports cumulative bytes allocated by the process so far —
// monotonic, so deltas measure exactly what a code region allocated,
// independent of when the GC runs.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// TestSkewedSelectBoundedAlloc is the memory-bound regression test of the
// resumable pipeline, and the target of the GOMEMLIMIT-constrained CI step:
// one candidate region yields fan² = 202 500 rows, and streaming its first
// 10 through the pipeline must allocate a bounded amount — a few hundred KB
// of segments and machinery — independent of the region size. The profiled
// warm-up pins that the run has two start candidates, so Workers = 2 really
// starts the pipeline.
// Whole-region buffering allocated >100 MB here (the materialized leg of
// BenchmarkSkewedFirstRows still does), which is why CI runs this test
// under a GOMEMLIMIT that the old behavior could not respect.
func TestSkewedSelectBoundedAlloc(t *testing.T) {
	ts, q := skewedTriples(450)
	store := New(ts, &Options{Workers: 2})
	p, err := store.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Warm once (plan caches, dictionaries) so the measured pass is steady
	// state.
	var prof ProfileResult
	warm := p.SelectProfiled(ctx, &prof)
	warm.Next()
	warm.Close()
	if prof.StartCandidates < 2 {
		t.Fatalf("%d start candidates: the run is sequential, not pipelined", prof.StartCandidates)
	}

	before := totalAlloc()
	rows := p.Select(ctx)
	n := 0
	for n < 10 && rows.Next() {
		n++
	}
	if err := rows.Close(); err != nil || n != 10 {
		t.Fatalf("streamed %d rows (%v)", n, err)
	}
	delta := totalAlloc() - before
	// Measured ~110 KB; the bound leaves a wide margin while sitting three
	// orders of magnitude under the ~126 MB whole-region cost.
	const bound = 4 << 20
	if delta > bound {
		t.Fatalf("first-10-rows allocated %d bytes, want <= %d (whole-region buffering?)", delta, bound)
	}
	t.Logf("first 10 of 202500 rows: %d bytes allocated", delta)
}

// TestOrderByLimitBoundedAlloc pins the top-k ORDER BY memory contract at
// scale: on a 202 500-row result, `ORDER BY ?a LIMIT 5` must allocate no
// more than the plain unordered drain plus a small constant — the bounded
// heap retains k rows, never the stream — while the unbounded ORDER BY
// (sorted runs + merge, which must hold every row and emit every projected
// row) demonstrably allocates more.
func TestOrderByLimitBoundedAlloc(t *testing.T) {
	ts, q := skewedTriples(450)
	store := New(ts, nil)
	ctx := context.Background()

	run := func(text string) uint64 {
		p, err := store.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		// Warm plan compilation outside the measurement.
		if _, err := p.Count(ctx); err != nil {
			t.Fatal(err)
		}
		before := totalAlloc()
		res, err := p.Exec(ctx)
		if err != nil || res.Len() == 0 {
			t.Fatalf("%d rows (%v)", res.Len(), err)
		}
		return totalAlloc() - before
	}

	plain := run(q) // unordered full drain: the row-construction floor
	topk := run(q + "\nORDER BY ?a LIMIT 5")
	full := run(q + "\nORDER BY ?a")

	// The top-k pass may cost a bounded constant over the floor (the heap,
	// a few segments), but nothing proportional to the 202k rows.
	const slack = 2 << 20
	if topk > plain+slack {
		t.Fatalf("ORDER BY LIMIT 5 allocated %d bytes vs %d unordered (+%d slack): not O(k)",
			topk, plain, slack)
	}
	// Sanity on the comparison: the unbounded sort really is paying the
	// O(n) retention the top-k path avoids.
	if full < topk+slack {
		t.Fatalf("unbounded ORDER BY allocated %d bytes vs top-k %d: fixture no longer discriminates", full, topk)
	}
	t.Logf("plain %d, topk %d, full %d bytes", plain, topk, full)
}
