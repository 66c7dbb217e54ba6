package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/server"
	"repro/internal/sparql"
	"repro/internal/storage"
	"repro/internal/transform"
)

// spanKind names a layer boundary the benchmark can see from outside: one
// exported call, or one phase of an HTTP exchange.
type spanKind uint8

const (
	kQuery         spanKind = iota // root: one library query op
	kUpdate                        // root: one update op
	kCompact                       // root: the compaction
	kHTTPHit                       // root: one request answered from the result cache
	kHTTPMiss                      // root: one request executed live
	kTwin                          // root: the in-process twin of a live request's text
	kMatch                         // root: PreparedQuery.Count of an op's query, run beside it
	kCanonText                     // root: sparql.Canonical beside a library op, which never calls it
	kParse                         // sparql.Parse
	kCanonical                     // sparql.Canonical
	kPrepare                       // Engine.PrepareParsed
	kFirstRow                      // PreparedQuery.Select through the first Next
	kDrain                         // the remaining Next calls
	kClose                         // Rows.Close
	kParseUpdate                   // sparql.ParseUpdate
	kWALAppend                     // WAL.Append
	kApply                         // Mutable.Apply
	kSetData                       // Engine.SetData
	kCompactDelta                  // Mutable.Compact
	kFrozenSegment                 // Mutable.FrozenSegment
	kWriteSegment                  // storage.WriteSegmentFile
	kWALReset                      // WAL.Reset
	kHTTPFirstByte                 // request sent -> first body byte
	kHTTPBody                      // first body byte -> end of body
	numKinds
)

var kindNames = [numKinds]string{
	"op.query", "op.update", "op.compact", "op.http_hit", "op.http_miss", "twin.query", "core.match", "twin.canonical",
	"sparql.parse", "sparql.canonical", "engine.prepare", "engine.first_row", "engine.drain", "engine.close",
	"sparql.parse_update", "storage.wal_append", "transform.apply", "engine.set_data",
	"transform.compact", "transform.frozen_segment", "storage.write_segment", "storage.wal_reset",
	"http.first_byte", "http.body",
}

// span is one timed call. parent indexes the span that caused it, -1 for a
// root; spans of one op share its id.
type span struct {
	op         uint32
	kind       spanKind
	parent     int32
	start, end int64 // ns since the tracer started
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(op uint32, kind spanKind, parent int32) int32 {
	t.spans = append(t.spans, span{op: op, kind: kind, parent: parent, start: t.now()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = t.now() }

func (t *tracer) add(op uint32, kind spanKind, parent int32, start, end int64) {
	t.spans = append(t.spans, span{op: op, kind: kind, parent: parent, start: start, end: end})
}

// kindTotals is what the layer metrics are computed from: per kind, how many
// spans, their summed duration, and their summed self time (duration minus
// the part child spans cover).
type kindTotals struct {
	n          [numKinds]int
	dur, self  [numKinds]float64 // µs
	samples    [numKinds][]float64
	keepSample [numKinds]bool
}

func (t *tracer) totals(keep ...spanKind) *kindTotals {
	kt := &kindTotals{}
	for _, k := range keep {
		kt.keepSample[k] = true
	}
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := float64(s.end-s.start) / 1e3
		kt.n[s.kind]++
		kt.dur[s.kind] += d
		kt.self[s.kind] += d - float64(covered[i])/1e3
		if kt.keepSample[s.kind] {
			kt.samples[s.kind] = append(kt.samples[s.kind], d)
		}
	}
	return kt
}

func (kt *kindTotals) mean(k spanKind) float64 {
	if kt.n[k] == 0 {
		return 0
	}
	return kt.dur[k] / float64(kt.n[k])
}

// write stores the spans of the first maxOps ops as JSON lines.
func (t *tracer) write(path string, maxOps uint32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		if s.op >= maxOps {
			continue
		}
		fmt.Fprintf(w, `{"id":%d,"op":%d,"name":%q,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			i, s.op, kindNames[s.kind], s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mirror is the same system assembled from the layers' exported entry
// points, so that each op can be taken apart into the calls the public API
// makes on the caller's behalf.
type mirror struct {
	p    *prepared
	tr   *tracer
	eng  *engine.Engine
	mut  *transform.Mutable // durable workloads
	wal  *storage.WAL
	dir  string
	http *httpStack // serve_zipf: the endpoint the traced requests go to
	// metricsBase is the server's counters when the mirror was assembled.
	metricsBase server.MetricsSnapshot

	parsed []*sparql.Query         // prepared workloads: parsed once
	pqs    []*engine.PreparedQuery // compiled for pqEpoch
	epochs []uint64                // epoch each pqs entry was compiled at
	layers map[string]float64      // set-up layers and one-off measurements
	prof   core.ProfileResult      // summed over the first chunk's ops; Solutions holds their rows
	exact  bool                    // still inside the first chunk
	counts struct{ cursorRows, httpRows, bodyBytes int64 }
	byKey  map[int][]float64 // lubm_scan: select+drain+close µs per key

	walTriples int // triples appended to the log since it was last reset
	compacted  bool
	nextOp     uint32
}

// timed records how long one set-up call of a layer took.
func (m *mirror) timed(name string, f func()) {
	t0 := time.Now()
	f()
	m.layers[name] = time.Since(t0).Seconds()
}

// newMirror assembles the workload's stack layer by layer, timing each call
// that the public set-up makes.
func newMirror(p *prepared, sp *spec, st stack) (*mirror, error) {
	m := &mirror{p: p, tr: &tracer{t0: time.Now()}, layers: map[string]float64{}, exact: true, byKey: map[int][]float64{}}
	var data *transform.Data
	switch {
	case sp.durable:
		m.dir = filepath.Join(p.dir, "mirror")
		if err := copyDir(p.snapDir, m.dir); err != nil {
			return nil, err
		}
		snap := filepath.Join(m.dir, "snapshot.thb")
		var seg *storage.FileSegment
		var err error
		m.timed("storage.open_segment_s", func() { seg, err = storage.OpenFileSegment(snap) })
		if err != nil {
			return nil, err
		}
		sd, err := seg.Snapshot()
		if err != nil {
			return nil, err
		}
		m.timed("transform.from_segment_s", func() { m.mut, err = transform.NewMutableFromSegment(sd) })
		if err != nil {
			return nil, err
		}
		seg.Close()
		m.timed("storage.wal_replay_s", func() { m.wal, _, err = storage.OpenWAL(filepath.Join(m.dir, "wal.thl"), false) })
		if err != nil {
			return nil, err
		}
		if fi, err := os.Stat(snap); err == nil {
			m.layers["storage.segment_bytes_per_triple"] = float64(fi.Size()) / float64(m.mut.Len())
		}
		data = m.mut.Current()
	case p.nt != nil:
		var triples []rdf.Triple
		var err error
		m.timed("rdf.read_ntriples_s", func() { triples, err = rdf.ReadAll(bytes.NewReader(p.nt)) })
		if err != nil {
			return nil, err
		}
		m.layers["rdf.ntriples_mb_per_s"] = float64(len(p.nt)) / 1e6 / m.layers["rdf.read_ntriples_s"]
		m.timed("transform.build_s", func() { data = transform.Build(triples, transform.TypeAware) })
	default:
		m.timed("transform.build_s", func() { data = transform.Build(p.in.triples, transform.TypeAware) })
	}
	m.eng = engine.New(data, core.Optimized())
	if m.http, _ = st.(*httpStack); m.http != nil {
		m.metricsBase = m.http.srv.Metrics()
	}

	if ls, ok := st.(*libStack); ok && ls.prepared != nil {
		m.parsed = make([]*sparql.Query, len(p.texts))
		m.pqs = make([]*engine.PreparedQuery, len(p.texts))
		m.epochs = make([]uint64, len(p.texts))
		for i, t := range p.texts {
			q, err := sparql.Parse(t)
			if err != nil {
				return nil, err
			}
			m.parsed[i] = q
			if m.pqs[i], err = m.eng.PrepareParsed(q); err != nil {
				return nil, err
			}
			m.epochs[i] = data.Epoch
		}
	}
	return m, nil
}

func (m *mirror) close() error {
	if m.wal != nil {
		return m.wal.Close()
	}
	return nil
}

// exec runs one op on the mirror, recording a span per layer call, and
// returns the row count the checker compares.
func (m *mirror) exec(ctx context.Context, o op) (rows int, err error) {
	id := m.nextOp
	m.nextOp++
	switch o.kind {
	case opQuery:
		switch {
		case m.http != nil:
			return m.httpOp(ctx, id, o.key)
		case m.pqs != nil:
			return m.preparedOp(ctx, id, o.key)
		default:
			return m.textOp(ctx, id, kQuery, m.p.texts[o.key])
		}
	case opUpdate:
		return 0, m.updateOp(id, o.text)
	default:
		return 0, m.compactOp(ctx, id)
	}
}

// textOp is Store.Select taken apart: parse, compile, open the cursor, pull
// the first row, drain, close. Beside the op it runs Count on the same
// prepared query (matching without rows) and, for the library workloads,
// Canonical, which only the server's cache key calls.
func (m *mirror) textOp(ctx context.Context, id uint32, root spanKind, text string) (int, error) {
	r := m.tr.begin(id, root, -1)
	s := m.tr.begin(id, kParse, r)
	q, err := sparql.Parse(text)
	m.tr.end(s)
	if err != nil {
		return 0, err
	}
	if root == kTwin {
		s = m.tr.begin(id, kCanonical, r)
		sparql.Canonical(q)
		m.tr.end(s)
	}
	s = m.tr.begin(id, kPrepare, r)
	pq, err := m.eng.PrepareParsed(q)
	m.tr.end(s)
	if err != nil {
		return 0, err
	}
	rows, err := m.selectDrain(ctx, id, r, pq)
	m.tr.end(r)
	if err != nil {
		return rows, err
	}
	if root == kQuery {
		s = m.tr.begin(id, kCanonText, -1)
		sparql.Canonical(q)
		m.tr.end(s)
	}
	return rows, m.match(ctx, id, pq, rows)
}

// preparedOp is Prepared.Select taken apart. A prepared query recompiles
// itself on the first execution after the snapshot changed; from outside
// that is PrepareParsed at the new epoch, so the mirror makes that call
// explicitly and keeps its result until the next epoch.
func (m *mirror) preparedOp(ctx context.Context, id uint32, key int) (int, error) {
	r := m.tr.begin(id, kQuery, -1)
	if epoch := m.eng.Data().Epoch; m.epochs[key] != epoch {
		s := m.tr.begin(id, kPrepare, r)
		pq, err := m.eng.PrepareParsed(m.parsed[key])
		m.tr.end(s)
		if err != nil {
			return 0, err
		}
		m.pqs[key], m.epochs[key] = pq, epoch
	}
	t0 := m.tr.now()
	rows, err := m.selectDrain(ctx, id, r, m.pqs[key])
	m.tr.end(r)
	if err != nil {
		return rows, err
	}
	m.byKey[key] = append(m.byKey[key], float64(m.tr.now()-t0)/1e3)
	return rows, m.match(ctx, id, m.pqs[key], rows)
}

func (m *mirror) selectDrain(ctx context.Context, id uint32, parent int32, pq *engine.PreparedQuery) (int, error) {
	var prof core.ProfileResult
	s := m.tr.begin(id, kFirstRow, parent)
	cur := pq.SelectProfiled(ctx, &prof)
	n := 0
	if cur.Next() {
		n = 1
		rowSink += len(cur.Row())
	}
	m.tr.end(s)
	s = m.tr.begin(id, kDrain, parent)
	for cur.Next() {
		n++
		rowSink += len(cur.Row())
	}
	m.tr.end(s)
	s = m.tr.begin(id, kClose, parent)
	err := cur.Close()
	m.tr.end(s)
	m.counts.cursorRows += int64(n)
	if m.exact {
		m.prof.Solutions += n
		m.prof.Regions += prof.Regions
		m.prof.ExploredCandidates += prof.ExploredCandidates
		m.prof.SearchNodes += prof.SearchNodes
		m.prof.NECExpansionsSkipped += prof.NECExpansionsSkipped
		m.prof.SignatureChecked += prof.SignatureChecked
		m.prof.SignatureKilled += prof.SignatureKilled
	}
	return n, err
}

// match times Count of the op's prepared query: exploration and search with
// no rows built. Its count must agree with the cursor's.
func (m *mirror) match(ctx context.Context, id uint32, pq *engine.PreparedQuery, rows int) error {
	s := m.tr.begin(id, kMatch, -1)
	n, err := pq.Count(ctx)
	m.tr.end(s)
	if err == nil && n != rows {
		err = fmt.Errorf("Count says %d, the cursor delivered %d rows", n, rows)
	}
	return err
}

// httpOp times one request from the client's side and, when the server ran
// it live, the in-process twin of the same text.
func (m *mirror) httpOp(ctx context.Context, id uint32, key int) (int, error) {
	t0 := m.tr.now()
	rows, first, body, disposition, err := m.http.timedQuery(ctx, key)
	t1 := m.tr.now()
	if err != nil {
		return rows, err
	}
	kind := kHTTPMiss
	if disposition == "hit" {
		kind = kHTTPHit
	}
	m.tr.add(id, kind, -1, t0, t1)
	r := int32(len(m.tr.spans) - 1)
	m.tr.add(id, kHTTPFirstByte, r, t0, t0+int64(first))
	m.tr.add(id, kHTTPBody, r, t0+int64(first), t1)
	m.counts.bodyBytes += int64(body)
	m.counts.httpRows += int64(rows)
	if kind == kHTTPHit {
		return rows, nil
	}
	twin, err := m.textOp(ctx, id, kTwin, m.p.texts[key])
	if err == nil && twin != rows {
		err = fmt.Errorf("HTTP delivered %d rows, the in-process twin %d", rows, twin)
	}
	return rows, err
}

// updateOp is Store.Update taken apart.
func (m *mirror) updateOp(id uint32, text string) error {
	r := m.tr.begin(id, kUpdate, -1)
	defer m.tr.end(r)
	s := m.tr.begin(id, kParseUpdate, r)
	u, err := sparql.ParseUpdate(text)
	m.tr.end(s)
	if err != nil {
		return err
	}
	for _, uop := range u.Ops {
		b := storage.Batch{Del: uop.Triples}
		if uop.Insert {
			b = storage.Batch{Ins: uop.Triples}
		}
		s = m.tr.begin(id, kWALAppend, r)
		err := m.wal.Append(b)
		m.tr.end(s)
		if err != nil {
			return err
		}
		m.walTriples += len(uop.Triples)
		s = m.tr.begin(id, kApply, r)
		data, n := m.mut.Apply(b.Ins, b.Del)
		m.tr.end(s)
		if n > 0 {
			s = m.tr.begin(id, kSetData, r)
			m.eng.SetData(data)
			m.tr.end(s)
		}
	}
	return nil
}

// noteWALSize records the log's bytes per logged triple.
func (m *mirror) noteWALSize() {
	if fi, err := os.Stat(filepath.Join(m.dir, "wal.thl")); err == nil && m.walTriples > 0 {
		m.layers["storage.wal_bytes_per_triple"] = float64(fi.Size()-int64(storage.WALHeaderLen)) / float64(m.walTriples)
	}
}

// probeReps is how often the probe runs on each side of the compaction.
const probeReps = 31

// compactOp is Store.Compact taken apart. Around it the department probe is
// timed over the overlay and again over the fresh base.
func (m *mirror) compactOp(ctx context.Context, id uint32) error {
	probe := func() (float64, error) {
		pq, err := m.eng.PrepareParsed(m.parsed[m.p.probeKey])
		if err != nil {
			return 0, err
		}
		var us []float64
		for i := 0; i < probeReps; i++ {
			t0 := time.Now()
			cur := pq.Select(ctx)
			for cur.Next() {
			}
			if err := cur.Close(); err != nil {
				return 0, err
			}
			us = append(us, micros(time.Since(t0)))
		}
		return median(us), nil
	}
	before, err := probe()
	if err != nil {
		return err
	}
	m.layers["transform.delta_size"] = float64(m.mut.DeltaSize())
	m.noteWALSize()

	r := m.tr.begin(id, kCompact, -1)
	s := m.tr.begin(id, kCompactDelta, r)
	d := m.mut.Compact()
	m.tr.end(s)
	s = m.tr.begin(id, kSetData, r)
	m.eng.SetData(d)
	m.tr.end(s)
	s = m.tr.begin(id, kFrozenSegment, r)
	sd, err := m.mut.FrozenSegment()
	m.tr.end(s)
	if err != nil {
		return err
	}
	s = m.tr.begin(id, kWriteSegment, r)
	err = storage.WriteSegmentFile(filepath.Join(m.dir, "snapshot.thb"), sd)
	m.tr.end(s)
	if err != nil {
		return err
	}
	s = m.tr.begin(id, kWALReset, r)
	err = m.wal.Reset()
	m.tr.end(s)
	m.tr.end(r)
	if err != nil {
		return err
	}
	m.compacted, m.walTriples = true, 0

	after, err := probe()
	if err != nil {
		return err
	}
	if after > 0 {
		m.layers["graph.overlay_read_ratio"] = before / after
	}
	return nil
}
