package main

import (
	"math/rand"
)

type opKind uint8

const (
	opQuery opKind = iota
	opUpdate
	opCompact
)

// op is one step of a schedule. Schedules are pure functions of the seed:
// the n-th op of a client is the same on every run, only its duration varies.
type op struct {
	kind opKind
	key  int    // opQuery: index into the workload's text table
	text string // opUpdate: the SPARQL Update request
	want int    // opQuery: required row count, or -1 for "equal to first seen"
}

type schedule func() op

func scheduleRNG(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 11))
}

// texts returns the query texts of the named templates, grouped by template.
func (in *inputs) texts(ids []string) (texts []string, groups [][]int) {
	for _, id := range ids {
		var g []int
		for _, pi := range in.byTmpl[id] {
			g = append(g, len(texts))
			texts = append(texts, in.pop[pi].text)
		}
		groups = append(groups, g)
	}
	return texts, groups
}

// adhocSchedule draws a template uniformly, then one of its instantiations.
func adhocSchedule(groups [][]int, r *rand.Rand) schedule {
	return func() op {
		g := groups[r.Intn(len(groups))]
		return op{kind: opQuery, key: g[r.Intn(len(g))], want: -1}
	}
}

// scanCycle is one pass of lubm_scan, as keys into heavyIDs: the three joins
// (Q2, Q9, Q13) once and the two streaming scans (Q6, Q14) twice. Five
// prepared queries give a latency distribution of five spikes, and a quantile
// of it is the latency of whichever query sits at that rank. Run one each, the
// median is Q9, whose time is bound by memory latency and drifts by a tenth
// with the host's other tenants over tens of seconds — past any bound a
// metric may have. With the scans the majority the median is Q14, which
// streams and holds to a few percent; the joins still move queries_per_s
// and have their own engine.drain_us.* in the traced run.
var scanCycle = []int{0, 1, 2, 4, 3, 1, 4}

// scanSchedule runs the prepared queries in scanCycle order, over and over.
func scanSchedule() schedule {
	i := -1
	return func() op {
		i++
		return op{kind: opQuery, key: scanCycle[i%len(scanCycle)], want: -1}
	}
}

// zipfSchedule draws popularity ranks Zipf(1.1); every tenth request is one
// of the streamed heavy queries, whose keys follow the population in the text
// table. Rank r is a text of template r mod T, so the few ranks that carry
// most of the traffic always hold one text of every template: which
// constants are popular depends on the seed, which templates are does not.
func zipfSchedule(groups [][]int, heavies int, seed int64, client int) schedule {
	population := 0
	// The popularity order depends on the seed alone, so both clients agree
	// on which texts are popular.
	order := rand.New(rand.NewSource(seed*131 + 5))
	perms := make([][]int, len(groups))
	for i, g := range groups {
		population += len(g)
		perms[i] = order.Perm(len(g))
	}
	r := scheduleRNG(seed, client)
	z := rand.NewZipf(r, 1.1, 1, uint64(population-1))
	n := 0
	return func() op {
		n++
		if n%10 == 0 {
			return op{kind: opQuery, key: population + (n/10)%heavies, want: -1}
		}
		rank := int(z.Uint64())
		g := rank % len(groups)
		return op{kind: opQuery, key: groups[g][perms[g][rank/len(groups)%len(groups[g])]], want: -1}
	}
}

// updateGen produces the update stream: two inserts of a new graduate
// student for every delete of an earlier one, on average.
type updateGen struct {
	in   *inputs
	r    *rand.Rand
	next int
	live []int
	gone []int
}

func (g *updateGen) nextUpdate() string {
	if len(g.live) > 0 && g.r.Intn(3) == 0 {
		i := g.r.Intn(len(g.live))
		n := g.live[i]
		g.live[i] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
		g.gone = append(g.gone, n)
		return g.in.updateText(false, n)
	}
	n := g.next
	g.next++
	g.live = append(g.live, n)
	return g.in.updateText(true, n)
}

// churnSchedule mixes 90 % prepared reads with 10 % updates; op number
// compactAt is the one compaction. probeKey's required row count follows the
// live inserts.
func churnSchedule(reads, probeKey, probeBase int, g *updateGen, compactAt int) schedule {
	r := g.r
	n := -1
	return func() op {
		n++
		if n == compactAt {
			return op{kind: opCompact}
		}
		if r.Intn(10) == 0 {
			return op{kind: opUpdate, text: g.nextUpdate()}
		}
		key := r.Intn(reads)
		if key == probeKey {
			return op{kind: opQuery, key: key, want: probeBase + len(g.live)}
		}
		return op{kind: opQuery, key: key, want: -1}
	}
}
