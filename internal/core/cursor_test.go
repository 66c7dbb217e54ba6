package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// cursorKeys drives a whole-run Cursor under a pause/resume schedule:
// quotas are taken from sched cyclically (nil = run to exhaustion in one
// Resume). It returns the per-row keys and the summed per-call row counts.
func cursorKeys(t *testing.T, g graph.View, q *QueryGraph, sem Semantics, opts Opts, sched []int) ([]string, int) {
	t.Helper()
	var keys []string
	c, err := NewCursor(context.Background(), g, q, sem, opts, func(mt Match) bool {
		keys = append(keys, matchKey(mt))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; ; i++ {
		quota := 0
		if len(sched) > 0 {
			quota = sched[i%len(sched)]
		}
		n, done, err := c.Resume(quota)
		if err != nil {
			t.Fatalf("Resume: %v", err)
		}
		total += n
		if done {
			break
		}
		if quota > 0 && n == 0 {
			t.Fatalf("suspended cursor made no progress (quota %d after %d rows)", quota, total)
		}
	}
	return keys, total
}

// resumeSchedules is the pause/resume corpus: run uninterrupted, suspend
// after every row, after every 7 rows, and at random points.
func resumeSchedules(r *rand.Rand) map[string][]int {
	random := make([]int, 17)
	for i := range random {
		random[i] = 1 + r.Intn(11)
	}
	return map[string][]int{
		"uninterrupted": nil,
		"every-row":     {1},
		"every-7":       {7},
		"random":        random,
	}
}

// TestCursorDifferential is the cursor's acceptance suite: over the full
// instance corpus, both semantics, NEC on and off, and every pause/resume
// schedule, the cursor's rows must be exactly brute force's multiset, and
// the run must reproduce an uninterrupted run byte-identically — rows,
// order, and profile totals.
func TestCursorDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	scheds := resumeSchedules(r)
	for _, inst := range pipelineInstances() {
		for _, sem := range []Semantics{Homomorphism, Isomorphism} {
			oracle := bruteForceKeys(inst.g, inst.q, sem)
			for _, noNEC := range []bool{false, true} {
				opts := Optimized()
				opts.NoNEC = noNEC
				opts.Workers = 1
				var wantProf ProfileResult
				ref := opts
				ref.Profile = &wantProf
				want, _ := cursorKeys(t, inst.g, inst.q, sem, ref, nil)
				for name, sched := range scheds {
					t.Run(fmt.Sprintf("%s/%v/noNEC=%v/%s", inst.name, sem, noNEC, name), func(t *testing.T) {
						var gotProf ProfileResult
						copts := opts
						copts.Profile = &gotProf
						got, n := cursorKeys(t, inst.g, inst.q, sem, copts, sched)
						if n != len(got) {
							t.Fatalf("cursor reported %d rows, delivered %d", n, len(got))
						}
						if d := sameKeys(slices.Sorted(slices.Values(got)), oracle); d != "" {
							t.Fatalf("cursor vs brute force: %s", d)
						}
						if d := sameKeys(got, want); d != "" {
							t.Fatalf("suspended vs uninterrupted: %s", d)
						}
						if gotProf != wantProf {
							t.Fatalf("profile diverged:\nsuspended     %+v\nuninterrupted %+v", gotProf, wantProf)
						}
					})
				}
			}
		}
	}
}

// TestCursorBaselineOpts runs the pause/resume differential under the
// unoptimized configuration too (per-region plans, no +INT, no +REUSE),
// where the cursor exercises the IsJoinable membership path.
func TestCursorBaselineOpts(t *testing.T) {
	for _, inst := range pipelineInstances() {
		for _, sem := range []Semantics{Homomorphism, Isomorphism} {
			opts := Baseline()
			opts.Workers = 1
			want, _ := cursorKeys(t, inst.g, inst.q, sem, opts, nil)
			if d := sameKeys(slices.Sorted(slices.Values(want)), bruteForceKeys(inst.g, inst.q, sem)); d != "" {
				t.Fatalf("%s/%v: cursor vs brute force: %s", inst.name, sem, d)
			}
			got, _ := cursorKeys(t, inst.g, inst.q, sem, opts, []int{3})
			if d := sameKeys(got, want); d != "" {
				t.Fatalf("%s/%v: suspended vs uninterrupted: %s", inst.name, sem, d)
			}
		}
	}
}

// TestResumableWorkersDifferential is the workers axis of the satellite
// suite: the pipeline (itself built on suspended cursors, with per-segment
// quotas derived from StreamBuffer) must reproduce the sequential rows for
// every worker count and row-buffer bound.
func TestResumableWorkersDifferential(t *testing.T) {
	for _, inst := range pipelineInstances() {
		for _, sem := range []Semantics{Homomorphism, Isomorphism} {
			for _, noNEC := range []bool{false, true} {
				opts := Optimized()
				opts.NoNEC = noNEC
				opts.Workers = 1
				want := streamKeys(t, inst.g, inst.q, sem, opts)
				for _, workers := range []int{2, 4, 8} {
					for _, rows := range []int{0, 1, 7} {
						par := opts
						par.Workers = workers
						par.StreamBuffer = rows
						got := streamKeys(t, inst.g, inst.q, sem, par)
						if len(got) != len(want) {
							t.Fatalf("%s/%v/noNEC=%v workers=%d buf=%d: %d rows, want %d",
								inst.name, sem, noNEC, workers, rows, len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("%s/%v/noNEC=%v workers=%d buf=%d row %d:\n got %s\nwant %s",
									inst.name, sem, noNEC, workers, rows, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestCursorLimitAndStop pins Resume's row budget together with
// visitor-stop semantics on the cursor: a visitor stopping after 11 rows,
// inside the fourth Resume(3), ends the run done with no error after the
// same prefix as the sequential run; a stop under Resume(0) likewise.
func TestCursorLimitAndStop(t *testing.T) {
	g, q := bipartiteInstance(24)
	opts := Optimized()
	opts.Workers = 1
	full := streamKeys(t, g, q, Homomorphism, opts)

	for _, tc := range []struct{ stopAt, quota int }{{11, 3}, {5, 0}} {
		var got []string
		c, err := NewCursor(context.Background(), g, q, Homomorphism, opts, func(mt Match) bool {
			got = append(got, matchKey(mt))
			return len(got) < tc.stopAt
		})
		if err != nil {
			t.Fatal(err)
		}
		total, done := 0, false
		for calls := 0; !done; calls++ {
			var n int
			if n, done, err = c.Resume(tc.quota); err != nil {
				t.Fatalf("stop at %d: %v", tc.stopAt, err)
			}
			if tc.quota > 0 && n > tc.quota {
				t.Fatalf("stop at %d: Resume(%d) emitted %d rows", tc.stopAt, tc.quota, n)
			}
			if calls > tc.stopAt {
				t.Fatalf("stop at %d: still not done after %d calls", tc.stopAt, calls)
			}
			total += n
		}
		if total != tc.stopAt || len(got) != tc.stopAt {
			t.Fatalf("stop at %d: %d rows (reported %d)", tc.stopAt, len(got), total)
		}
		for i := range got {
			if got[i] != full[i] {
				t.Fatalf("stop at %d row %d: %s, want prefix %s", tc.stopAt, i, got[i], full[i])
			}
		}
		// Idempotent after done.
		if n, done, err := c.Resume(0); n != 0 || !done || err != nil {
			t.Fatalf("post-done Resume = (%d, %v, %v)", n, done, err)
		}
	}
}

// TestCursorCancellation: a cancelled context surfaces through Resume and
// the rows delivered before it form a sequential prefix.
func TestCursorCancellation(t *testing.T) {
	g, q := bipartiteInstance(32)
	opts := Optimized()
	opts.Workers = 1
	full := streamKeys(t, g, q, Homomorphism, opts)

	ctx, cancel := context.WithCancel(context.Background())
	var got []string
	c, err := NewCursor(ctx, g, q, Homomorphism, opts, func(mt Match) bool {
		got = append(got, matchKey(mt))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, done, err := c.Resume(3); done || err != nil {
		t.Fatalf("first resume: done=%v err=%v", done, err)
	}
	cancel()
	var lastErr error
	for i := 0; i < len(full)+1; i++ {
		_, done, err := c.Resume(3)
		if done {
			lastErr = err
			break
		}
	}
	if lastErr != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", lastErr)
	}
	if len(got) >= len(full) {
		t.Fatalf("cancellation did not cut the run (%d rows)", len(got))
	}
	for i := range got {
		if got[i] != full[i] {
			t.Fatalf("row %d: %s, want prefix %s", i, got[i], full[i])
		}
	}
}

// skewedInstance builds an instance whose FIRST region dwarfs the rest: hub
// 0 has a fan-out of big leaves while the remaining hubs have small ones, so
// a two-leaf query yields big² rows from one region and tiny trickles from
// the others — the shape that would buffer a whole region without the
// pipeline's suspended cursors and per-row backpressure.
func skewedInstance(big, smallHubs, small int) (*graph.Graph, *QueryGraph) {
	fHub, fLeaf := uint32(0), uint32(1)
	b := graph.NewBuilder()
	next := uint32(0)
	addHub := func(fan int) {
		hv := next
		next++
		b.AddVertexLabel(hv, fHub)
		for f := 0; f < fan; f++ {
			lv := next
			next++
			b.AddVertexLabel(lv, fLeaf)
			b.AddEdge(hv, 7, lv)
		}
	}
	addHub(big)
	for h := 0; h < smallHubs; h++ {
		addHub(small)
	}
	g := b.Build()
	q := NewQueryGraph()
	hub := q.AddVertex([]uint32{fHub}, NoID)
	for i := 0; i < 2; i++ {
		leaf := q.AddVertex([]uint32{fLeaf}, NoID)
		q.AddEdge(hub, leaf, 7)
	}
	return g, q
}

// heavyTailInstance puts the expensive regions at the END of the candidate
// range: many trivial hubs followed by a block of heavy ones, so workers
// that drain the trivial batches go idle while one worker grinds through
// the heavy tail batch and the emitter waits on it.
func heavyTailInstance(light, heavy, heavyFan int) (*graph.Graph, *QueryGraph) {
	fHub, fLeaf := uint32(0), uint32(1)
	b := graph.NewBuilder()
	next := uint32(0)
	addHub := func(fan int) {
		hv := next
		next++
		b.AddVertexLabel(hv, fHub)
		for f := 0; f < fan; f++ {
			lv := next
			next++
			b.AddVertexLabel(lv, fLeaf)
			b.AddEdge(hv, 7, lv)
		}
	}
	for h := 0; h < light; h++ {
		addHub(1)
	}
	for h := 0; h < heavy; h++ {
		addHub(heavyFan)
	}
	g := b.Build()
	q := NewQueryGraph()
	hub := q.AddVertex([]uint32{fHub}, NoID)
	for i := 0; i < 2; i++ {
		leaf := q.AddVertex([]uint32{fLeaf}, NoID)
		q.AddEdge(hub, leaf, 7)
	}
	return g, q
}

// TestPipelineSkewedFirstRowsBounded is the memory-bound regression: one
// region yields >100k rows, and streaming its first 10 must not buffer the
// region. The assertion is on delivered work, via the profile: with a tiny
// row budget, the emitter consumes 10 rows and stops; the workers' merged
// SearchNodes must be a small fraction of the full run's (whole-region
// buffering would search all >100k rows before delivering the first).
// The allocation-side assertion lives in BenchmarkSkewedFirstRows and the
// GOMEMLIMIT-constrained CI step.
func TestPipelineSkewedFirstRowsBounded(t *testing.T) {
	g, q := skewedInstance(340, 4, 2) // region 0 alone: 340² = 115_600 rows
	opts := Optimized()
	opts.NoNEC = true // search every row (NEC would bulk-expand combinatorially)
	opts.Workers = 1
	var full ProfileResult
	opts.Profile = &full
	if _, err := Stream(context.Background(), g, q, Homomorphism, opts, func(Match) bool { return true }); err != nil {
		t.Fatal(err)
	}

	var part ProfileResult
	par := Optimized()
	par.NoNEC = true
	par.Workers = 2
	par.StreamBuffer = 16
	par.Profile = &part
	seen := 0
	if _, err := Stream(context.Background(), g, q, Homomorphism, par, func(Match) bool {
		seen++
		return seen < 10
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 10 {
		t.Fatalf("saw %d rows, want 10", seen)
	}
	if part.SearchNodes*20 >= full.SearchNodes {
		t.Fatalf("first-10 search effort not bounded: %d of %d search nodes (whole-region buffering?)",
			part.SearchNodes, full.SearchNodes)
	}
}
