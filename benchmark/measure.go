package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// segments is how many equal slices a timed window is cut into. A latency
// metric is the median of the per-slice values; the slices are kept in the
// report so the spread inside one run is visible.
const segments = 5

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the p-th percentile (nearest rank) of v, sorting it in
// place.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(math.Ceil(p/100*float64(len(v)))) - 1
	return v[max(i, 0)]
}

// spread is the distance between the quartiles of v — of five sorted values,
// the second and the fourth — as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 3 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := median(s)
	if m == 0 {
		return 0
	}
	q := len(s) / 4
	return (s[len(s)-1-q] - s[q]) / m
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// recorder collects one client's samples of a timed window, slice by slice.
type recorder struct {
	start  time.Time
	segDur time.Duration
	query  [segments][]float64 // µs per fully drained query
	first  [segments][]float64 // µs to the first row
	update [segments][]float64 // µs per acknowledged update
	rows   [segments]int64
}

func newRecorder(start time.Time, window time.Duration) *recorder {
	return &recorder{start: start, segDur: window / segments}
}

func (r *recorder) seg(now time.Time) int {
	return min(int(now.Sub(r.start)/r.segDur), segments-1)
}

// windowStats folds the clients' recorders into per-slice statistics. A
// slice in which no query (or no update) completed — store_churn's
// compaction can fill one — contributes no latency value.
type windowStats struct {
	queryP50, queryP99, firstP50 []float64
	updateP50, updateP99         []float64
	qps, rps                     [segments]float64
	queries, updates             int
	rows                         int64
	elapsed                      time.Duration
}

func foldWindow(recs []*recorder, elapsed time.Duration) *windowStats {
	ws := &windowStats{elapsed: elapsed}
	for s := 0; s < segments; s++ {
		var q, f, u []float64
		var rows int64
		for _, r := range recs {
			q = append(q, r.query[s]...)
			f = append(f, r.first[s]...)
			u = append(u, r.update[s]...)
			rows += r.rows[s]
		}
		ws.queries += len(q)
		ws.updates += len(u)
		ws.rows += rows
		segSecs := recs[0].segDur.Seconds()
		if s == segments-1 {
			// The last slice absorbs the op that was in flight at the deadline.
			segSecs = elapsed.Seconds() - float64(segments-1)*segSecs
		}
		ws.qps[s] = float64(len(q)) / segSecs
		ws.rps[s] = float64(rows) / segSecs
		if len(q) > 0 {
			ws.queryP50 = append(ws.queryP50, percentile(q, 50))
			ws.queryP99 = append(ws.queryP99, percentile(q, 99))
			ws.firstP50 = append(ws.firstP50, percentile(f, 50))
		}
		if len(u) > 0 {
			ws.updateP50 = append(ws.updateP50, percentile(u, 50))
			ws.updateP99 = append(ws.updateP99, percentile(u, 99))
		}
	}
	return ws
}

// memCounters are the cumulative allocation counters an op count divides.
type memCounters struct{ mallocs, bytes uint64 }

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{ms.Mallocs, ms.TotalAlloc}
}

// liveHeap is the heap in use after two collections: the first frees what
// became garbage, the second what finalizers and sync.Pools released.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// spinSink keeps spin's loop observable.
var spinSink uint64

// spin runs a fixed integer recurrence on one thread for d and returns
// millions of iterations per second. Taken before and after a workload, it
// says whether the machine's speed changed underneath the measurement.
func spin(d time.Duration) float64 {
	const chunk = 1 << 16
	x := uint64(88172645463325252)
	n := 0
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < chunk; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		n += chunk
	}
	spinSink += x
	return float64(n) / 1e6 / time.Since(start).Seconds()
}

// What settle may cost a run, and what it takes for "as fast as usual".
const (
	settleHistory = 5
	settleShare   = 0.88
	settlePause   = 2 * time.Second
	settleMax     = 40 * time.Second
)

// settle holds a run back while the machine is slower than it usually is.
// A shared box has minutes in which every thread runs at three quarters of
// its speed; a run measured then is off by far more than any bound, and
// three such runs in ten wreck a spread. The speed calibrations of the last
// few runs in this checkout are kept in outDir; settle spins until the
// current one reaches settleShare of their median, or settleMax has passed.
// The reference follows the machine: a lasting slowdown stops being waited
// for once it fills more than half the history. Nothing measured is
// adjusted — settle only chooses when measuring starts.
func settle(outDir string, d time.Duration) (waited time.Duration) {
	path := filepath.Join(outDir, "spin_history")
	var history []float64
	if b, err := os.ReadFile(path); err == nil {
		for _, f := range strings.Fields(string(b)) {
			var v float64
			if _, err := fmt.Sscan(f, &v); err == nil {
				history = append(history, v)
			}
		}
	}
	usual := median(history)
	mops := spin(d)
	start := time.Now()
	for mops < settleShare*usual && time.Since(start) < settleMax {
		time.Sleep(settlePause)
		mops = spin(d)
		waited = time.Since(start)
	}
	history = append(history, mops)
	history = history[max(len(history)-settleHistory, 0):]
	var b strings.Builder
	for _, v := range history {
		fmt.Fprintf(&b, "%.1f\n", v)
	}
	// Losing the history only costs the next run its reference.
	_ = os.WriteFile(path, []byte(b.String()), 0o644)
	return waited
}
