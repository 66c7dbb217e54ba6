package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/intset"
	"repro/internal/storage"
	"repro/internal/transform"
)

// runTraced measures the per-layer metrics. Chunks of the schedule run
// alternately untraced on the public stack and traced on the mirror until
// the time is up (and, for store_churn, until the compaction has happened);
// the two op times give the tracing overhead. Counts of work come from the
// first traced chunk only, which holds the same ops on every run.
func runTraced(cfg config) (*report, error) {
	sp := specs[cfg.workload]
	ctx := context.Background()
	rep, p, err := beginRun(cfg, sp)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(p.dir)
	in := p.in
	st, err := sp.build(p)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() { st.close() }()
	m, err := newMirror(p, sp, st)
	if err != nil {
		return nil, fmt.Errorf("assembling the mirror stack: %w", err)
	}
	defer func() { m.close() }()

	fails := &failures{}
	probeBase, err := storeOf(st).Count(in.probeText())
	if err != nil {
		return nil, err
	}
	// Two schedules: one drives the public stack, one the mirror. They are
	// the same op sequence, except over HTTP, where both reach the same
	// server and the second client's stream keeps the traced requests from
	// replaying what the untraced ones just cached.
	mirrorClient := 0
	if sp.clients > 1 {
		mirrorClient = 1
	}
	pubSched := sp.schedule(p, 0, probeBase, &updateGen{in: in, r: scheduleRNG(cfg.seed, 1000)})
	mirSched := sp.schedule(p, mirrorClient, probeBase, &updateGen{in: in, r: scheduleRNG(cfg.seed, 1000)})
	pubChk, mirChk := newChecker(len(p.texts), fails), newChecker(len(p.texts), fails)

	rep.SpinBefore = spin(cfg.spin)
	attempted := driveOps(ctx, st, pubSched, p.warmOps, pubChk)

	chunk := max(int(float64(sp.traceChunk)*cfg.warmScale), 1)
	var pubTime time.Duration
	var pubOps, mirOps int
	start := time.Now()
	for time.Since(start).Seconds() < cfg.seconds || (sp.compacts && !m.compacted) {
		t0 := time.Now()
		pubOps += driveOps(ctx, st, pubSched, chunk, pubChk)
		pubTime += time.Since(t0)

		for i := 0; i < chunk; i++ {
			o := mirSched()
			rows, err := m.exec(ctx, o)
			if o.kind == opQuery {
				mirChk.check(o, rows, err)
			} else if err != nil {
				fails.add("traced op: %v", err)
			}
		}
		mirOps += chunk
		m.exact = false
	}
	rep.SpinAfter = spin(cfg.spin)
	attempted += pubOps + mirOps

	if err := m.oneOffs(ctx, sp); err != nil {
		return nil, err
	}
	for name, v := range m.layers {
		rep.set(name, v, nil)
	}
	tracedOpSeconds := m.layerMetrics(rep)
	rep.set("bench.trace_overhead_ratio", (tracedOpSeconds/float64(mirOps))/(pubTime.Seconds()/float64(pubOps)), nil)
	rep.set("bench.spin_mops", rep.SpinBefore, nil)
	rep.Window = map[string]int64{"ops_untraced": int64(pubOps), "ops_traced": int64(mirOps), "spans": int64(len(m.tr.spans))}

	if err := m.tr.write(filepath.Join(cfg.outDir, "trace.jsonl"), uint32(chunk)); err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}
	rep.finish(attempted, fails)
	return rep, nil
}

// layerMetrics turns the spans into the per-layer numbers and the share of
// traced op time each layer accounts for. It returns the traced op time: the
// root spans of the ops, without the twins run beside them.
func (m *mirror) layerMetrics(rep *report) (opSeconds float64) {
	kt := m.tr.totals(kHTTPHit, kHTTPMiss)
	set := func(name string, v float64) { rep.set(name, v, nil) }

	set("sparql.parse_us", kt.mean(kParse))
	set("sparql.canonical_us", max(kt.mean(kCanonical), kt.mean(kCanonText)))
	set("sparql.parse_update_us", kt.mean(kParseUpdate))
	set("engine.prepare_us", kt.mean(kPrepare))
	set("engine.first_row_us", kt.mean(kFirstRow))
	set("engine.set_data_us", kt.mean(kSetData))
	set("core.match_us", kt.mean(kMatch))
	set("storage.wal_append_us", kt.mean(kWALAppend))
	set("transform.apply_us", kt.mean(kApply))
	set("transform.compact_s", kt.dur[kCompact]/1e6)

	// Select + drain + close, less matching alone, is what rows cost.
	cursor := kt.dur[kFirstRow] + kt.dur[kDrain] + kt.dur[kClose]
	match := min(kt.dur[kMatch], cursor)
	rowsCost := cursor - match
	if m.counts.cursorRows > 0 {
		set("engine.rows_us_per_krow", rowsCost/float64(m.counts.cursorRows)*1000)
	}
	if m.p.nt != nil { // lubm_scan: keys are the five heavy queries
		for key, us := range m.byKey {
			set("engine.drain_us."+heavyIDs[key], median(us))
		}
	}

	p := m.prof
	for name, v := range map[string]int{
		"core.regions": p.Regions, "core.explored_candidates": p.ExploredCandidates,
		"core.search_nodes": p.SearchNodes, "core.solutions": p.Solutions,
		"core.nec_expansions_skipped": p.NECExpansionsSkipped,
		"core.sig_checked":            p.SignatureChecked, "core.sig_killed": p.SignatureKilled,
	} {
		set(name, float64(v))
	}
	if p.Solutions > 0 {
		set("core.search_nodes_per_solution", float64(p.SearchNodes)/float64(p.Solutions))
	}
	if p.SignatureChecked > 0 {
		set("core.sig_kill_ratio", float64(p.SignatureKilled)/float64(p.SignatureChecked))
	}

	// Shares of traced op time. A library op's time is its root span; the
	// layers' self times are its child spans, with the cursor's time split
	// into matching (what Count alone costs) and row delivery (the rest).
	layer := map[string]float64{}
	opTime := kt.dur[kQuery] + kt.dur[kUpdate] + kt.dur[kCompact] + kt.dur[kHTTPHit] + kt.dur[kHTTPMiss]
	if m.http == nil {
		layer["sparql"] = kt.self[kParse] + kt.self[kParseUpdate]
		layer["engine"] = kt.self[kPrepare] + rowsCost + kt.self[kSetData]
		layer["core"] = match
		layer["storage"] = kt.self[kWALAppend] + kt.self[kWriteSegment] + kt.self[kWALReset]
		layer["transform"] = kt.self[kApply] + kt.self[kCompactDelta] + kt.self[kFrozenSegment]
	} else {
		// Over HTTP a hit is all server. A miss is the in-process twin's
		// matching and row delivery, plus parse, canonicalize and compile on
		// the share of requests that missed the prepared-query LRU; what the
		// request took beyond that is the server and the wire.
		now, was := m.http.srv.Metrics(), m.metricsBase
		preparedMiss := 0.0
		hits, misses := now.PreparedHits-was.PreparedHits, now.PreparedMisses-was.PreparedMisses
		if hits+misses > 0 {
			preparedMiss = float64(misses) / float64(hits+misses)
			set("server.prepared_hit_ratio", 1-preparedMiss)
		}
		hits, misses = now.CacheHits-was.CacheHits, now.CacheMisses-was.CacheMisses
		if hits+misses > 0 {
			set("cache.hit_ratio", float64(hits)/float64(hits+misses))
		}
		layer["sparql"] = preparedMiss * (kt.self[kParse] + kt.self[kCanonical])
		layer["engine"] = preparedMiss*kt.self[kPrepare] + rowsCost
		layer["core"] = match
		layer["server"] = max(opTime-layer["sparql"]-layer["engine"]-layer["core"], 0)

		if kt.n[kHTTPMiss] > 0 {
			set("server.wire_overhead_us", percentile(kt.samples[kHTTPMiss], 50)-twinCursorP50(m.tr))
		}
		set("server.replay_us", percentile(kt.samples[kHTTPHit], 50))
		if rows := m.counts.httpRows; rows > 0 {
			set("server.bytes_per_row", float64(m.counts.bodyBytes)/float64(rows))
		}
		if opTime > 0 {
			set("server.body_mb_per_s", float64(m.counts.bodyBytes)/opTime)
		}
	}
	sum := 0.0
	for name, us := range layer {
		sum += us
		set("share."+name+"_pct", 100*us/opTime)
	}
	set("bench.layer_sum_ratio", sum/opTime)
	return opTime / 1e6
}

// twinCursorP50 is the median time the in-process twins spent from opening
// the cursor to closing it: the same texts as the live HTTP requests, with
// no server and no wire.
func twinCursorP50(t *tracer) float64 {
	perOp := map[uint32]float64{}
	for _, s := range t.spans {
		if s.kind == kFirstRow || s.kind == kDrain || s.kind == kClose {
			perOp[s.op] += float64(s.end-s.start) / 1e3
		}
	}
	us := make([]float64, 0, len(perOp))
	for _, v := range perOp {
		us = append(us, v)
	}
	return percentile(us, 50)
}

// oneOffs are the measurements taken once per run, outside the op stream.
func (m *mirror) oneOffs(ctx context.Context, sp *spec) error {
	set := func(name string, v float64) { m.layers[name] = v }
	switch {
	case m.http != nil:
		h, err := m.http.health(ctx)
		if err != nil {
			return fmt.Errorf("reading /healthz: %w", err)
		}
		set("cache.evictions", float64(h.ResultCache.Evictions))
		set("cache.carry_forwards", float64(h.ResultCache.CarryForwards))
		set("cache.invalidated", float64(h.ResultCache.Invalidated))
		set("cache.bytes", float64(h.ResultCache.Bytes))
	case sp.durable:
		// What a restart would replay: reopen the mirror's log.
		m.noteWALSize()
		if err := m.wal.Close(); err != nil {
			return err
		}
		var err error
		m.timed("storage.wal_replay_s", func() { m.wal, _, err = storage.OpenWAL(filepath.Join(m.dir, "wal.thl"), false) })
		if err != nil {
			return err
		}
	case m.p.nt != nil:
		set("core.parallel_speedup", m.workerRatio(ctx, true))
		set("intset.intersect2_ns_per_elem", intersectCost(m.eng.Data()))
	default:
		set("core.pipeline_tax", 1/m.workerRatio(ctx, false))
	}
	return nil
}

// workerRatio is time at Workers=1 divided by time at the default worker
// count, over the same data: Count of the heavy queries (heavy), or Select
// and drain of a sample of the selective texts.
func (m *mirror) workerRatio(ctx context.Context, heavy bool) float64 {
	one := core.Optimized()
	one.Workers = 1
	engines := [2]*engine.Engine{engine.New(m.eng.Data(), one), m.eng}
	texts := m.p.texts
	if !heavy {
		texts = nil
		for _, g := range m.p.groups {
			for i := 0; i < 25 && i < len(g); i++ {
				texts = append(texts, m.p.texts[g[i*len(g)/25%len(g)]])
			}
		}
	}
	var total [2]time.Duration
	for _, text := range texts {
		for e, eng := range engines {
			pq, err := eng.Prepare(text)
			if err != nil {
				continue
			}
			best := time.Duration(0)
			for rep := 0; rep < 5; rep++ {
				t0 := time.Now()
				if heavy {
					pq.Count(ctx) //nolint:errcheck // timing only; counts were checked op by op
				} else {
					cur := pq.Select(ctx)
					for cur.Next() {
					}
					cur.Close()
				}
				if d := time.Since(t0); best == 0 || d < best {
					best = d
				}
			}
			total[e] += best
		}
	}
	if total[1] == 0 {
		return 0
	}
	return total[0].Seconds() / total[1].Seconds()
}

// intersectCost times intset.Intersect2 on two real sorted lists from the
// built graph — the subjects of the two most frequent predicates — in ns per
// input element.
func intersectCost(d *transform.Data) float64 {
	var a, b []uint32
	for el := 0; el < d.G.NumEdgeLabels(); el++ {
		s := d.G.SubjectsOf(uint32(el))
		switch {
		case len(s) > len(a):
			a, b = s, a
		case len(s) > len(b):
			b = s
		}
	}
	if len(a)+len(b) == 0 {
		return 0
	}
	var dst []uint32
	const reps = 50
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		dst = intset.Intersect2(dst[:0], a, b)
	}
	rowSink += len(dst)
	return float64(time.Since(t0).Nanoseconds()) / reps / float64(len(a)+len(b))
}
