package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	turbohom "repro"
)

// config is one run. The driver sets workload, seed, seconds and trace; the
// rest are the sizes the smoke test shrinks.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	scale     int           // LUBM universities
	setups    int           // how many times set-up is repeated and timed
	warmScale float64       // multiplies each workload's warm-up op count
	burst     int           // updates applied after the window where the window has none
	spin      time.Duration // length of each speed calibration
	outDir    string        // scratch and trace directory, inside the checkout
}

func defaultConfig() config {
	return config{
		seed: 1, seconds: 18,
		scale: defaultScale, setups: 3, warmScale: 1, burst: 300,
		spin:   250 * time.Millisecond,
		outDir: filepath.Join("benchmark", "out"),
	}
}

// prepared holds what a workload derives from the inputs before the timed
// set-up: the table of texts ops index into, and the serialized forms the
// set-up reads.
type prepared struct {
	in       *inputs
	dir      string // this run's scratch directory
	warmOps  int    // ops each client runs before the timed window
	texts    []string
	groups   [][]int  // text keys per template, where texts are instantiated templates
	nt       []byte   // lubm_scan: the N-Triples bytes Open parses
	snapDir  string   // serve_zipf, store_churn: directory OpenDir starts from
	bodies   []string // serve_zipf: form bodies per text
	heavies  int      // serve_zipf: streamed heavy texts at the table's end
	probeKey int      // store_churn: key of the department probe
}

// spec is one workload: how its inputs are laid out, how the system under
// test is brought up (the timed set-up), and how each client's ops are drawn.
type spec struct {
	workloadDef
	clients int
	warmOps int // per client, before the timed window
	// traceChunk is how many ops the traced run takes from the schedule at a
	// time; counts of work are totals over the first such chunk.
	traceChunk int
	durable    bool
	compacts   bool // the schedule holds a compaction; a traced run goes on until it has happened
	prepare    func(p *prepared) error
	build      func(p *prepared) (stack, error)
	schedule   func(p *prepared, client, probeBase int, g *updateGen) schedule
}

var specs = map[string]*spec{
	"lubm_adhoc": {
		workloadDef: workloadDefs[0], clients: 1, warmOps: 3000, traceChunk: 4000,
		prepare: func(p *prepared) error {
			p.texts, p.groups = p.in.texts(selective)
			return nil
		},
		build: func(p *prepared) (stack, error) {
			return &libStack{store: turbohom.New(p.in.triples, nil), texts: p.texts}, nil
		},
		schedule: func(p *prepared, client, _ int, _ *updateGen) schedule {
			return adhocSchedule(p.groups, scheduleRNG(p.in.seed, client))
		},
	},
	"lubm_scan": {
		workloadDef: workloadDefs[1], clients: 1, warmOps: 105, traceChunk: 49,
		prepare: func(p *prepared) (err error) {
			for _, id := range heavyIDs {
				p.texts = append(p.texts, p.in.heavy[id])
			}
			p.nt, err = p.in.ntriples()
			return err
		},
		build: func(p *prepared) (stack, error) {
			store, err := turbohom.Open(bytes.NewReader(p.nt), nil)
			if err != nil {
				return nil, err
			}
			s := &libStack{store: store, texts: p.texts}
			return s, s.prepareAll()
		},
		schedule: func(p *prepared, _, _ int, _ *updateGen) schedule {
			return scanSchedule()
		},
	},
	"serve_zipf": {
		workloadDef: workloadDefs[2], clients: 2, warmOps: 500, traceChunk: 400, durable: true,
		prepare: func(p *prepared) error {
			p.texts, p.groups = p.in.texts(append(append([]string(nil), selective...), extra...))
			for _, id := range []string{"Q6", "Q9", "Q14"} {
				p.texts = append(p.texts, p.in.heavy[id])
				p.heavies++
			}
			for _, t := range p.texts {
				p.bodies = append(p.bodies, formBody(t))
			}
			return p.writeSnapshot()
		},
		build: func(p *prepared) (stack, error) {
			return startHTTP(p.snapDir, p.bodies, 2)
		},
		schedule: func(p *prepared, client, _ int, _ *updateGen) schedule {
			return zipfSchedule(p.groups, p.heavies, p.in.seed, client)
		},
	},
	"store_churn": {
		workloadDef: workloadDefs[3], clients: 1, warmOps: 1000, traceChunk: 1500, durable: true, compacts: true,
		prepare: func(p *prepared) error {
			p.texts = p.in.churnReads()
			p.probeKey = len(p.texts) - 1
			return p.writeSnapshot()
		},
		build: func(p *prepared) (stack, error) {
			store, err := turbohom.OpenDir(p.snapDir, nil)
			if err != nil {
				return nil, err
			}
			s := &libStack{store: store, texts: p.texts}
			return s, s.prepareAll()
		},
		schedule: func(p *prepared, _, probeBase int, g *updateGen) schedule {
			// The compaction is the first op after the warm-up: the timed
			// window always starts with it, on a delta of the same size.
			return churnSchedule(len(p.texts), p.probeKey, probeBase, g, p.warmOps)
		},
	},
}

// newPrepared lays out a workload's inputs in the run's scratch directory.
func newPrepared(in *inputs, cfg config, sp *spec, dir string) (*prepared, error) {
	p := &prepared{in: in, dir: dir, warmOps: int(float64(sp.warmOps) * cfg.warmScale)}
	if err := sp.prepare(p); err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	return p, nil
}

// beginRun is what both kinds of run start with: a scratch directory under
// the output directory (the caller removes p.dir), the inputs made from the
// seed, and the report stamped with what it ran on.
func beginRun(cfg config, sp *spec) (*report, *prepared, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, cfg.workload+"-")
	if err != nil {
		return nil, nil, err
	}
	in := generate(cfg.seed, cfg.scale)
	p, err := newPrepared(in, cfg, sp, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	rep := newReport(cfg, sp)
	rep.Env.Triples = len(in.triples)
	rep.SettleWait = settle(cfg.outDir, cfg.spin).Seconds()
	return rep, p, nil
}

// writeSnapshot writes the store directory the durable workloads open. The
// snapshot is input generation, not set-up: set-up is the cold start from it.
func (p *prepared) writeSnapshot() error {
	p.snapDir = filepath.Join(p.dir, "store")
	return turbohom.New(p.in.triples, nil).Save(p.snapDir)
}

// churnReads picks store_churn's prepared reads: four constants each of Q4,
// Q5 and Q7, two of Q8 and Q13, the Q9 triangle, and the department probe
// last. None but the probe touches the department the updates write into.
func (in *inputs) churnReads() []string {
	r := rand.New(rand.NewSource(in.seed*17 + 3))
	var texts []string
	pick := func(id string, n int) {
		var free []int
		for _, pi := range in.byTmpl[id] {
			if !in.touchesChurn(in.pop[pi]) {
				free = append(free, pi)
			}
		}
		for i := 0; i < n && len(free) > 0; i++ {
			j := r.Intn(len(free))
			texts = append(texts, in.pop[free[j]].text)
			free[j] = free[len(free)-1]
			free = free[:len(free)-1]
		}
	}
	pick("Q4", 4)
	pick("Q5", 4)
	pick("Q7", 4)
	pick("Q8", 2)
	pick("Q13", 2)
	return append(texts, in.heavy["Q9"], in.probeText())
}

// failures counts wrong, failed or refused ops and keeps the first few
// messages for the report.
type failures struct {
	mu   sync.Mutex
	n    int
	msgs []string
}

func (f *failures) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.msgs) < 8 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

// checker holds the row count first seen for every text; a later op on the
// same text must return the same count. Slots start at -1.
type checker struct {
	seen  []atomic.Int64
	fails *failures
}

func newChecker(texts int, fails *failures) *checker {
	c := &checker{seen: make([]atomic.Int64, texts), fails: fails}
	for i := range c.seen {
		c.seen[i].Store(-1)
	}
	return c
}

func (c *checker) check(o op, rows int, err error) {
	switch {
	case err != nil:
		c.fails.add("query %d: %v", o.key, err)
	case o.want >= 0:
		if rows != o.want {
			c.fails.add("query %d: %d rows, schedule requires %d", o.key, rows, o.want)
		}
	default:
		if !c.seen[o.key].CompareAndSwap(-1, int64(rows)) && c.seen[o.key].Load() != int64(rows) {
			c.fails.add("query %d: %d rows, first seen %d", o.key, rows, c.seen[o.key].Load())
		}
	}
}

// driveOps runs n ops of one client without recording times.
func driveOps(ctx context.Context, st stack, next schedule, n int, chk *checker) (ops int) {
	for i := 0; i < n; i++ {
		execOp(ctx, st, next(), chk, nil)
	}
	return n
}

// execOp runs one op, checks it, and records it when rec is set.
func execOp(ctx context.Context, st stack, o op, chk *checker, rec *recorder) {
	t0 := time.Now()
	switch o.kind {
	case opQuery:
		rows, first, err := st.query(ctx, o.key)
		t1 := time.Now()
		chk.check(o, rows, err)
		if rec != nil && err == nil {
			s := rec.seg(t1)
			rec.query[s] = append(rec.query[s], micros(t1.Sub(t0)))
			rec.first[s] = append(rec.first[s], micros(first))
			rec.rows[s] += int64(rows)
		}
	case opUpdate:
		err := st.update(ctx, o.text)
		t1 := time.Now()
		if err != nil {
			chk.fails.add("update: %v", err)
		} else if rec != nil {
			s := rec.seg(t1)
			rec.update[s] = append(rec.update[s], micros(t1.Sub(t0)))
		}
	case opCompact:
		if err := st.compact(); err != nil {
			chk.fails.add("compact: %v", err)
		}
	}
}

// driveWindow runs every client's schedule closed-loop until the window
// ends, and returns their recorders and the ops attempted.
func driveWindow(ctx context.Context, st stack, scheds []schedule, window time.Duration, chk *checker) ([]*recorder, int, time.Duration) {
	start := time.Now()
	deadline := start.Add(window)
	recs := make([]*recorder, len(scheds))
	attempted := make([]int, len(scheds))
	var wg sync.WaitGroup
	for c := range scheds {
		recs[c] = newRecorder(start, window)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				execOp(ctx, st, scheds[c](), chk, recs[c])
				attempted[c]++
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := 0
	for _, n := range attempted {
		total += n
	}
	return recs, total, elapsed
}

// runEndToEnd measures one workload with tracing off.
func runEndToEnd(cfg config) (*report, error) {
	sp := specs[cfg.workload]
	ctx := context.Background()
	rep, p, err := beginRun(cfg, sp)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(p.dir)
	in := p.in

	// Set-up, repeated: generated input -> ready to answer.
	var st stack
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", i, err)
			}
		}
		t0 := time.Now()
		if st, err = sp.build(p); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { st.close() }()
	rep.set("setup_s", median(setups), setups)

	fails := &failures{}
	g := &updateGen{in: in, r: scheduleRNG(cfg.seed, 1000)}
	gateAttempted, probeBase := runGate(ctx, p, st, fails)
	attempted := gateAttempted

	// Release the generator's output before weighing the store.
	triples := len(in.triples)
	in.triples, p.nt = nil, nil
	heap := liveHeap()

	chk := newChecker(len(p.texts), fails)
	scheds := make([]schedule, sp.clients)
	for c := range scheds {
		scheds[c] = sp.schedule(p, c, probeBase, g)
	}
	rep.SpinBefore = spin(cfg.spin)
	for c := range scheds {
		attempted += driveOps(ctx, st, scheds[c], p.warmOps, chk)
	}

	before := readMem()
	recs, ops, elapsed := driveWindow(ctx, st, scheds, time.Duration(cfg.seconds*float64(time.Second)), chk)
	after := readMem()
	rep.SpinAfter = spin(cfg.spin)
	attempted += ops
	ws := foldWindow(recs, elapsed)

	rep.set("query_p50_us", median(ws.queryP50), ws.queryP50)
	rep.set("query_p99_us", median(ws.queryP99), ws.queryP99)
	rep.set("first_row_p50_us", median(ws.firstP50), ws.firstP50)
	rep.set("queries_per_s", float64(ws.queries)/elapsed.Seconds(), ws.qps[:])
	rep.set("rows_per_s", float64(ws.rows)/elapsed.Seconds(), ws.rps[:])
	rep.set("allocs_per_op", float64(after.mallocs-before.mallocs)/float64(ops), nil)
	rep.set("alloc_kb_per_op", float64(after.bytes-before.bytes)/1024/float64(ops), nil)
	rep.Window = map[string]int64{"queries": int64(ws.queries), "updates": int64(ws.updates), "rows": ws.rows, "ops": int64(ops)}

	if ws.updates > 0 {
		// store_churn: the window holds the updates, and the store is weighed
		// in its end state, delta and all.
		rep.set("update_p50_us", median(ws.updateP50), ws.updateP50)
		rep.set("update_p99_us", median(ws.updateP99), ws.updateP99)
		// A prepared query keeps the snapshot of its last execution alive
		// until it runs again; running each once leaves exactly the current
		// snapshot pinned, whichever reads the window happened to end on.
		for key := range p.texts {
			execOp(ctx, st, op{kind: opQuery, key: key, want: -1}, chk, nil)
		}
		attempted += len(p.texts)
		heap = liveHeap()
		triples = st.(*libStack).store.Stats().Triples
	} else {
		// The read-only workloads take a fixed burst of updates after the
		// window, so that the write path of their kind of store (in memory,
		// or behind HTTP with the result cache to invalidate) is bounded too.
		burst := newRecorder(time.Now(), time.Hour)
		for i := 0; i < cfg.burst; i++ {
			t0 := time.Now()
			if err := st.update(ctx, g.nextUpdate()); err != nil {
				fails.add("burst update %d: %v", i, err)
				continue
			}
			s := i * segments / cfg.burst
			burst.update[s] = append(burst.update[s], micros(time.Since(t0)))
		}
		attempted += cfg.burst
		bs := foldWindow([]*recorder{burst}, time.Hour)
		rep.set("update_p50_us", median(bs.updateP50), bs.updateP50)
		rep.set("update_p99_us", median(bs.updateP99), bs.updateP99)
	}
	rep.set("mem_bytes_per_triple", float64(heap)/float64(triples), nil)

	attempted += verifyUpdates(ctx, p, sp, st, g, probeBase, fails)

	rep.finish(attempted, fails)
	return rep, nil
}
