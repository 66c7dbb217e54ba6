package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// starInstance builds hubs with a labeled fan-out and a star query whose
// leaves form one NEC class, exercising worker-side combination expansion.
func starInstance(hubs, fanout, leaves int) (*graph.Graph, *QueryGraph) {
	fHub, fLeaf := uint32(0), uint32(1)
	b := graph.NewBuilder()
	next := uint32(0)
	for h := 0; h < hubs; h++ {
		hv := next
		next++
		b.AddVertexLabel(hv, fHub)
		for f := 0; f < fanout; f++ {
			lv := next
			next++
			b.AddVertexLabel(lv, fLeaf)
			b.AddEdge(hv, 7, lv)
		}
	}
	g := b.Build()
	q := NewQueryGraph()
	hub := q.AddVertex([]uint32{fHub}, NoID)
	for i := 0; i < leaves; i++ {
		leaf := q.AddVertex([]uint32{fLeaf}, NoID)
		q.AddEdge(hub, leaf, 7)
	}
	return g, q
}

// matchKey flattens one match for comparison.
func matchKey(mt Match) string {
	return fmt.Sprintf("%v|%v", mt.Vertices, mt.EdgeLabels)
}

// streamKeys drains Stream into per-row keys.
func streamKeys(t *testing.T, g graph.View, q *QueryGraph, sem Semantics, opts Opts) []string {
	t.Helper()
	var keys []string
	n, err := Stream(context.Background(), g, q, sem, opts, func(mt Match) bool {
		keys = append(keys, matchKey(mt))
		return true
	})
	if err != nil {
		t.Fatalf("Stream(workers=%d): %v", opts.Workers, err)
	}
	if n != len(keys) {
		t.Fatalf("Stream(workers=%d) returned %d, visited %d", opts.Workers, n, len(keys))
	}
	return keys
}

type instance struct {
	name string
	g    *graph.Graph
	q    *QueryGraph
}

// goldenInstances is the corpus TestSequentialGolden's table was recorded
// on: wide bipartite (many regions), the Fig. 1 instance (joins, non-tree
// edges), the skewed Fig. 2 star (empty result), NEC-class stars, and a
// point-shaped query.
func goldenInstances() []instance {
	big, bq := bipartiteInstance(48)
	f1g, f1q := fig1Data(), fig1Query()
	f2g, f2q, _, _, _ := fig2Instance()
	sg, sq := starInstance(40, 5, 3)
	// Point-shaped query (one vertex, no edges): takes the pipeline's
	// sequential fast path, which must still hand Collect owned rows.
	pg, _ := starInstance(12, 4, 1)
	pq := NewQueryGraph()
	pq.AddVertex([]uint32{1}, NoID) // the leaf label
	return []instance{
		{"bipartite", big, bq},
		{"fig1", f1g, f1q},
		{"fig2-empty", f2g, f2q},
		{"nec-star", sg, sq},
		{"point", pg, pq},
	}
}

// singleRegionInstance builds one hub with a unique label, so the whole
// match set lives in ONE candidate region: hub --7--> a (mids of them)
// --8--> b (leaves per mid), queried by the chain r -> x -> y.
func singleRegionInstance(mids, leaves int) (*graph.Graph, *QueryGraph) {
	fHub, fMid, fLeaf := uint32(0), uint32(1), uint32(2)
	b := graph.NewBuilder()
	b.AddVertexLabel(0, fHub)
	next := uint32(1)
	for i := 0; i < mids; i++ {
		mv := next
		next++
		b.AddVertexLabel(mv, fMid)
		b.AddEdge(0, 7, mv)
		for j := 0; j < leaves; j++ {
			lv := next
			next++
			b.AddVertexLabel(lv, fLeaf)
			b.AddEdge(mv, 8, lv)
		}
	}
	q := NewQueryGraph()
	r := q.AddVertex([]uint32{fHub}, NoID)
	x := q.AddVertex([]uint32{fMid}, NoID)
	y := q.AddVertex([]uint32{fLeaf}, NoID)
	q.AddEdge(r, x, 7)
	q.AddEdge(x, y, 8)
	return b.Build(), q
}

// pipelineInstances is the shared differential corpus: the golden shapes
// plus two skewed ones — all rows in ONE candidate region (one start
// candidate, so it runs sequentially however many workers are configured),
// and heavy regions packed into the last batch behind many trivial ones.
func pipelineInstances() []instance {
	rg, rq := singleRegionInstance(96, 40)
	hg, hq := heavyTailInstance(120, 4, 20)
	return append(goldenInstances(),
		instance{"single-region", rg, rq},
		instance{"heavy-tail", hg, hq},
	)
}

// TestPipelineOrderDifferential is the tentpole's acceptance test at the
// core layer: for every instance, semantics, and optimization mix, Stream
// with Workers ∈ {2, 3, 8} (and a deliberately tiny reorder window) yields
// exactly the sequential row sequence.
func TestPipelineOrderDifferential(t *testing.T) {
	optVariants := []struct {
		name string
		opts Opts
	}{
		{"baseline", Baseline()},
		{"optimized", Optimized()},
		{"nec-off", Opts{NoNEC: true}},
		{"int-only", Opts{Intersect: true}},
	}
	for _, inst := range pipelineInstances() {
		for _, sem := range []Semantics{Homomorphism, Isomorphism} {
			for _, v := range optVariants {
				t.Run(fmt.Sprintf("%s/%v/%s", inst.name, sem, v.name), func(t *testing.T) {
					seq := v.opts
					seq.Workers = 1
					want := streamKeys(t, inst.g, inst.q, sem, seq)
					for _, workers := range []int{2, 3, 8} {
						for _, window := range []int{0, 1, 2} {
							par := v.opts
							par.Workers = workers
							par.StreamBuffer = window
							got := streamKeys(t, inst.g, inst.q, sem, par)
							if len(got) != len(want) {
								t.Fatalf("workers=%d window=%d: %d rows, want %d", workers, window, len(got), len(want))
							}
							for i := range got {
								if got[i] != want[i] {
									t.Fatalf("workers=%d window=%d row %d:\n got %s\nwant %s", workers, window, i, got[i], want[i])
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestPipelineCollectCountDifferential checks the Collect and Count rewires:
// parallel Collect returns the sequential rows in order and parallel Count
// the same total.
func TestPipelineCollectCountDifferential(t *testing.T) {
	for _, inst := range pipelineInstances() {
		for _, sem := range []Semantics{Homomorphism, Isomorphism} {
			opts := Optimized()
			opts.Workers = 1
			want, err := Collect(context.Background(), inst.g, inst.q, sem, opts)
			if err != nil {
				t.Fatal(err)
			}
			wantN, err := Count(context.Background(), inst.g, inst.q, sem, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 8} {
				opts.Workers = workers
				got, err := Collect(context.Background(), inst.g, inst.q, sem, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s/%v workers=%d: Collect %d rows, want %d",
						inst.name, sem, workers, len(got), len(want))
				}
				for i := range got {
					if matchKey(got[i]) != matchKey(want[i]) {
						t.Fatalf("%s/%v workers=%d row %d differs", inst.name, sem, workers, i)
					}
				}
				gotN, err := Count(context.Background(), inst.g, inst.q, sem, opts)
				if err != nil {
					t.Fatal(err)
				}
				if gotN != wantN {
					t.Fatalf("%s/%v workers=%d: Count = %d, want %d",
						inst.name, sem, workers, gotN, wantN)
				}
			}
		}
	}
}

// dispatchRun is what Stream, Collect and Count of one configuration
// return, with the profile of each. Its Stream visitor stops after stop rows
// (0 = never); Collect and Count run in full.
type dispatchRun struct {
	streamed, collected []string
	count               int
	profs               [3]ProfileResult
	// spawned is the most goroutines the Stream visitor saw beyond those
	// running before the call: zero when no worker started.
	spawned int
}

func runDispatch(t *testing.T, inst instance, sem Semantics, opts Opts, stop int) dispatchRun {
	t.Helper()
	ctx := context.Background()
	var r dispatchRun
	opts.Profile = &r.profs[0]
	before := runtime.NumGoroutine()
	n, err := Stream(ctx, inst.g, inst.q, sem, opts, func(mt Match) bool {
		r.spawned = max(r.spawned, runtime.NumGoroutine()-before)
		r.streamed = append(r.streamed, matchKey(mt))
		return stop == 0 || len(r.streamed) < stop
	})
	if err != nil || n != len(r.streamed) {
		t.Fatalf("Stream(workers=%d) = %d, %v; visited %d", opts.Workers, n, err, len(r.streamed))
	}
	opts.Profile = &r.profs[1]
	rows, err := Collect(ctx, inst.g, inst.q, sem, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, mt := range rows {
		r.collected = append(r.collected, matchKey(mt))
	}
	opts.Profile = &r.profs[2]
	if r.count, err = Count(ctx, inst.g, inst.q, sem, opts); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestOneCandidateRunsSequential pins the sequential-or-pipeline rule. A run
// whose start vertex has one candidate runs one Cursor on the calling
// goroutine at any Workers: Stream, Collect and Count give the rows, counts
// and profiles of Workers = 1, with Stream's visitor stopping after k rows
// or not, and no goroutine starts. A run with two candidates still starts
// the pipeline's workers.
func TestOneCandidateRunsSequential(t *testing.T) {
	ctx := context.Background()
	// One hub pinned by ID, its three leaves one NEC class: Count totals
	// the class combinatorially.
	pg, _ := starInstance(40, 5, 3)
	pq := NewQueryGraph()
	hub := pq.AddVertex([]uint32{0}, 6) // the second hub
	for i := 0; i < 3; i++ {
		pq.AddEdge(hub, pq.AddVertex([]uint32{1}, NoID), 7)
	}
	rg, rq := singleRegionInstance(96, 40)
	for _, inst := range []instance{{"single-region", rg, rq}, {"pinned", pg, pq}} {
		for _, sem := range []Semantics{Homomorphism, Isomorphism} {
			seq := Optimized()
			seq.Workers = 1
			if _, cands := newMatcher(ctx, inst.g, inst.q, sem, seq).startCandidates(); len(cands) != 1 {
				t.Fatalf("%s/%v: %d start candidates, want 1", inst.name, sem, len(cands))
			}
			all := runDispatch(t, inst, sem, seq, 0).count
			// Every prefix of the pinned star; the single region's first
			// rows, its first mid-to-mid boundary and its end.
			stops := []int{0, 1, 2, 40, 41, 57, all - 1, all, all + 1}
			if inst.name == "pinned" {
				stops = stops[:0]
				for k := 0; k <= all+1; k++ {
					stops = append(stops, k)
				}
			}
			wants := make([]dispatchRun, len(stops))
			for i, stop := range stops {
				wants[i] = runDispatch(t, inst, sem, seq, stop)
			}
			for _, workers := range []int{2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%v/workers=%d", inst.name, sem, workers), func(t *testing.T) {
					for i, want := range wants {
						par := seq
						par.Workers = workers
						got := runDispatch(t, inst, sem, par, stops[i])
						if got.spawned > 0 {
							t.Fatalf("stop=%d: %d goroutines started for one start candidate", stops[i], got.spawned)
						}
						got.spawned = want.spawned
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("stop=%d: workers=%d differs from workers=1:\n got %d rows, count %d, profiles %+v\nwant %d rows, count %d, profiles %+v",
								stops[i], workers, len(got.streamed), got.count, got.profs, len(want.streamed), want.count, want.profs)
						}
					}
				})
			}
		}
	}

	sg, sq := starInstance(2, 40, 2)
	two := instance{"two-hubs", sg, sq}
	seq := Optimized()
	seq.Workers = 1
	if _, cands := newMatcher(ctx, sg, sq, Homomorphism, seq).startCandidates(); len(cands) != 2 {
		t.Fatalf("two-hubs: %d start candidates, want 2", len(cands))
	}
	want := runDispatch(t, two, Homomorphism, seq, 0)
	for _, workers := range []int{2, 4, 8} {
		par := seq
		par.Workers = workers
		got := runDispatch(t, two, Homomorphism, par, 0)
		if got.spawned == 0 {
			t.Fatalf("workers=%d: no goroutine seen inside the visitor, so the pipeline did not run", workers)
		}
		if !reflect.DeepEqual(got.streamed, want.streamed) || got.count != want.count {
			t.Fatalf("workers=%d: %d rows, count %d; want %d rows, count %d", workers, len(got.streamed), got.count, len(want.streamed), want.count)
		}
	}
}

// TestPipelineVisitorStop: a visitor returning false is the one way a run
// stops early, so it must stop a parallel stream cleanly after exactly the
// prefix a sequential stream would deliver: at the first row, inside a
// batch and inside a region, for every instance (the point-shaped one
// included) under both semantics.
func TestPipelineVisitorStop(t *testing.T) {
	ctx := context.Background()
	point := false
	for _, inst := range pipelineInstances() {
		for _, sem := range []Semantics{Homomorphism, Isomorphism} {
			seq := Optimized()
			seq.Workers = 1
			point = point || newMatcher(ctx, inst.g, inst.q, sem, seq).pointShaped()
			full := streamKeys(t, inst.g, inst.q, sem, seq)
			for _, stopAt := range []int{1, 7, 57} {
				want := full[:min(stopAt, len(full))]
				for _, workers := range []int{2, 4, 8} {
					par := seq
					par.Workers = workers
					var got []string
					n, err := Stream(ctx, inst.g, inst.q, sem, par, func(mt Match) bool {
						got = append(got, matchKey(mt))
						return len(got) < stopAt
					})
					if err != nil || n != len(got) {
						t.Fatalf("%s/%v stop=%d workers=%d: returned %d, %v; visited %d",
							inst.name, sem, stopAt, workers, n, err, len(got))
					}
					if d := sameKeys(got, want); d != "" {
						t.Fatalf("%s/%v stop=%d workers=%d vs the sequential prefix: %s",
							inst.name, sem, stopAt, workers, d)
					}
				}
			}
		}
	}
	if !point {
		t.Fatal("no point-shaped instance in the corpus")
	}
}

// TestPipelineCancellation: cancelling mid-stream surfaces ctx.Err() and the
// rows delivered before it form a prefix of the sequential sequence.
func TestPipelineCancellation(t *testing.T) {
	g, q := bipartiteInstance(64)
	full := streamKeys(t, g, q, Homomorphism, Opts{Workers: 1})

	ctx, cancel := context.WithCancel(context.Background())
	var got []string
	_, err := Stream(ctx, g, q, Homomorphism, Opts{Workers: 4}, func(mt Match) bool {
		got = append(got, matchKey(mt))
		if len(got) == 3 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(got) >= len(full) {
		t.Fatalf("cancellation did not cut the stream (saw all %d rows)", len(got))
	}
	for i := range got {
		if got[i] != full[i] {
			t.Fatalf("row %d: %s, want sequential prefix %s", i, got[i], full[i])
		}
	}

	// Already-cancelled context: prompt error from the pipeline too.
	ctx, cancel = context.WithCancel(context.Background())
	cancel()
	if _, err := Stream(ctx, g, q, Homomorphism, Opts{Workers: 4}, func(Match) bool { return true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
	}
}

// TestPipelineProfileMergesToSequentialTotals: a fully drained parallel run
// merges per-worker counters into exactly the sequential totals, for both
// the enumerating and the NEC bulk-count paths.
func TestPipelineProfileMergesToSequentialTotals(t *testing.T) {
	for _, inst := range pipelineInstances() {
		for _, visitMode := range []string{"count", "stream"} {
			var seq, par ProfileResult
			opts := Optimized()
			opts.Workers = 1
			opts.Profile = &seq
			run := func(o Opts) (int, error) {
				if visitMode == "count" {
					return Count(context.Background(), inst.g, inst.q, Homomorphism, o)
				}
				return Stream(context.Background(), inst.g, inst.q, Homomorphism, o, func(Match) bool { return true })
			}
			wantN, err := run(opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Workers = 4
			opts.Profile = &par
			gotN, err := run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if gotN != wantN {
				t.Fatalf("%s/%s: parallel %d, want %d", inst.name, visitMode, gotN, wantN)
			}
			if par != seq {
				t.Fatalf("%s/%s: parallel profile %+v != sequential %+v", inst.name, visitMode, par, seq)
			}
		}
	}
}

// TestRunSpanAbandonedCursorNoPollution: a region cursor suspended
// mid-enumeration still holds used[] flags and predicate-variable bindings in
// its searchState. Whoever abandons such a region and keeps the state for
// another one (a pipeline worker shut down mid-region) must unwind it with
// regionCursor.abort, or the next region silently drops rows. The test drives
// one regionCursor directly: start on the heavy region, resume(limit) rows,
// abort, then search the light region through the same searchState, whose
// every row reuses a data vertex (or edge label) the abandoned search had
// bound.
func TestRunSpanAbandonedCursorNoPollution(t *testing.T) {
	fHub, fLeaf := uint32(0), uint32(1)
	// Hub 0 sees all six shared leaves; hub 1 only leaves 2 and 3 — the very
	// vertices an abandoned hub-0 search holds bound (candidates enumerate in
	// adjacency order, so leaf 2 is bound from the first row on).
	isoInstance := func() (*graph.Graph, *QueryGraph) {
		b := graph.NewBuilder()
		b.AddVertexLabel(0, fHub)
		b.AddVertexLabel(1, fHub)
		for l := uint32(2); l < 8; l++ {
			b.AddVertexLabel(l, fLeaf)
			b.AddEdge(0, 7, l)
		}
		b.AddEdge(1, 7, 2)
		b.AddEdge(1, 7, 3)
		q := NewQueryGraph()
		hub := q.AddVertex([]uint32{fHub}, NoID)
		for i := 0; i < 2; i++ {
			leaf := q.AddVertex([]uint32{fLeaf}, NoID)
			q.AddEdge(hub, leaf, 7)
		}
		return b.Build(), q
	}
	// The query's two edges share predicate variable 0; hub 0's edges are
	// labeled 7, hub 1's 8 — a stale varBind from the abandoned heavy region
	// rejects every light-region label.
	predVarInstance := func() (*graph.Graph, *QueryGraph) {
		b := graph.NewBuilder()
		b.AddVertexLabel(0, fHub)
		b.AddVertexLabel(1, fHub)
		for l := uint32(2); l < 8; l++ {
			b.AddVertexLabel(l, fLeaf)
			b.AddEdge(0, 7, l)
		}
		for l := uint32(8); l < 10; l++ {
			b.AddVertexLabel(l, fLeaf)
			b.AddEdge(1, 8, l)
		}
		q := NewQueryGraph()
		hub := q.AddVertex([]uint32{fHub}, NoID)
		for i := 0; i < 2; i++ {
			leaf := q.AddVertex([]uint32{fLeaf}, NoID)
			q.AddVarEdge(hub, leaf, 0)
		}
		return b.Build(), q
	}

	cases := []struct {
		name      string
		sem       Semantics
		noNEC     bool
		inst      func() (*graph.Graph, *QueryGraph)
		lightRows int // rows of hub 1's region
	}{
		{"iso-used", Isomorphism, true, isoInstance, 2},         // cfSearch bindings
		{"iso-nec-expand", Isomorphism, false, isoInstance, 2},  // cfExpand assignments
		{"hom-predvar", Homomorphism, true, predVarInstance, 4}, // cfWild variable bindings
	}
	for _, tc := range cases {
		for _, limit := range []int{1, 3, 5} {
			t.Run(fmt.Sprintf("%s/limit=%d", tc.name, limit), func(t *testing.T) {
				g, q := tc.inst()
				opts := Optimized()
				opts.NoNEC = tc.noNEC
				opts.Workers = 1
				seq := streamKeys(t, g, q, tc.sem, opts)
				if len(seq)-tc.lightRows <= limit {
					t.Fatalf("heavy region too small (%d total rows) to abandon after %d", len(seq), limit)
				}

				m := newMatcher(context.Background(), g, q, tc.sem, opts)
				start, cands := m.startCandidates()
				if len(cands) != 2 {
					t.Fatalf("start vertex %d with %d candidates, want the 2 hubs", start, len(cands))
				}
				m.buildQueryTree(start)
				var rows []string
				st := newSearchState(m, func(mt Match) bool {
					rows = append(rows, matchKey(mt))
					return true
				})
				rg := newRegion(len(m.q.Vertices))
				var plan *searchPlan
				var rc regionCursor
				// startRegion is one region of the Cursor's loop: explore,
				// plan (reused under +REUSE), start.
				startRegion := func(vs uint32) {
					rg.reset(vs)
					if !m.explore(rg, start, vs) {
						t.Fatalf("region of %d did not survive exploration", vs)
					}
					if plan == nil || !opts.ReuseOrder {
						plan = m.buildPlan(rg)
					}
					st.rg, st.plan = rg, plan
					rc.start(st)
				}

				// The heavy region suspends after limit rows and is abandoned.
				startRegion(cands[0])
				if rc.resume(limit) {
					t.Fatalf("heavy region finished within %d rows", limit)
				}
				if d := sameKeys(rows, seq[:limit]); d != "" {
					t.Fatalf("heavy region rows: %s", d)
				}
				rc.abort()
				for v, u := range st.used {
					if u {
						t.Errorf("used[%d] still set after abandoning the heavy region", v)
					}
				}
				for i, bnd := range st.varBind {
					if bnd != NoID {
						t.Errorf("varBind[%d] = %d still bound after abandoning the heavy region", i, bnd)
					}
				}

				// The light region through the same state: its rows must be
				// the sequential tail exactly.
				rows = nil
				startRegion(cands[1])
				if !rc.resume(0) {
					t.Fatal("light region suspended under resume(0)")
				}
				if d := sameKeys(rows, seq[len(seq)-tc.lightRows:]); d != "" {
					t.Fatalf("light region rows (stale bindings?): %s", d)
				}
			})
		}
	}
}

// TestPipelineBackpressure: with a tiny reorder window, an early stop leaves
// most regions unexplored — the backpressure contract that makes Close
// cheap on parallel cursors.
func TestPipelineBackpressure(t *testing.T) {
	g, q := bipartiteInstance(256)
	var full ProfileResult
	opts := Opts{Workers: 1, Profile: &full}
	if _, err := Stream(context.Background(), g, q, Homomorphism, opts, func(Match) bool { return true }); err != nil {
		t.Fatal(err)
	}

	var part ProfileResult
	opts = Opts{Workers: 4, StreamBuffer: 2, Profile: &part}
	seen := 0
	if _, err := Stream(context.Background(), g, q, Homomorphism, opts, func(Match) bool {
		seen++
		return seen < 2
	}); err != nil {
		t.Fatal(err)
	}
	if part.Regions == 0 {
		t.Fatalf("no effort recorded: %+v", part)
	}
	if part.Regions*4 >= full.Regions {
		t.Fatalf("early stop explored %d of %d regions despite a 2-batch window", part.Regions, full.Regions)
	}
}
