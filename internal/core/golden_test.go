package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"
)

// goldenRun is the recorded outcome of one sequential execution: the row
// count, an FNV-64a hash over the ordered row keys (zero for Count, which
// delivers no rows), and the complete effort profile.
type goldenRun struct {
	rows int
	hash uint64
	prof ProfileResult
}

// goldenCell is one instance × semantics × NEC × options cell, run both as
// a Stream (rows in order) and as a Count (the visitor-free path, where the
// NEC reduction counts expansions combinatorially).
type goldenCell struct {
	stream, count goldenRun
}

// TestSequentialGolden pins the sequential enumeration byte for byte: for
// every goldenInstances shape, both semantics, the NEC reduction on and
// off, and the Optimized and Baseline configurations at Workers = 1, the
// ordered row sequence (hashed) and every ProfileResult counter must equal
// the table below. The table was recorded from the recursive SubgraphSearch
// that the explicit-stack cursor replaced, so it holds the cursor to that
// search's exact output — row order and counters included, which the
// order-free brute-force oracle cannot check.
func TestSequentialGolden(t *testing.T) {
	configs := []struct {
		name string
		opts Opts
	}{{"optimized", Optimized()}, {"baseline", Baseline()}}
	for _, inst := range goldenInstances() {
		for _, sem := range []Semantics{Homomorphism, Isomorphism} {
			for _, noNEC := range []bool{false, true} {
				for _, cfg := range configs {
					name := fmt.Sprintf("%s/%v/noNEC=%v/%s", inst.name, sem, noNEC, cfg.name)
					opts := cfg.opts
					opts.NoNEC = noNEC
					opts.Workers = 1

					var got goldenCell
					h := fnv.New64a()
					sopts := opts
					sopts.Profile = &got.stream.prof
					n, err := Stream(context.Background(), inst.g, inst.q, sem, sopts, func(mt Match) bool {
						h.Write([]byte(matchKey(mt)))
						h.Write([]byte{'\n'})
						return true
					})
					if err != nil {
						t.Fatalf("%s: Stream: %v", name, err)
					}
					got.stream.rows, got.stream.hash = n, h.Sum64()

					copts := opts
					copts.Profile = &got.count.prof
					if got.count.rows, err = Count(context.Background(), inst.g, inst.q, sem, copts); err != nil {
						t.Fatalf("%s: Count: %v", name, err)
					}

					if want, ok := sequentialGolden[name]; !ok || got != want {
						t.Errorf("%s diverged from the recorded sequential run; got\n%s", name, got.literal(name))
					}
				}
			}
		}
	}
}

// literal renders the cell as a table entry, for diagnosing a divergence.
func (c goldenCell) literal(name string) string {
	run := func(r goldenRun) string {
		var fields []string
		v := reflect.ValueOf(r.prof)
		for i := 0; i < v.NumField(); i++ {
			if n := v.Field(i).Int(); n != 0 {
				fields = append(fields, fmt.Sprintf("%s: %d", v.Type().Field(i).Name, n))
			}
		}
		return fmt.Sprintf("goldenRun{%d, %#x, ProfileResult{%s}}", r.rows, r.hash, strings.Join(fields, ", "))
	}
	return fmt.Sprintf("\t%q: {\n\t\t%s,\n\t\t%s,\n\t},", name, run(c.stream), run(c.count))
}

var sequentialGolden = map[string]goldenCell{
	"bipartite/homomorphism/noNEC=false/optimized": {
		goldenRun{2304, 0x533ccdbc78712941, ProfileResult{StartCandidates: 48, Regions: 48, ExploredCandidates: 2304, SearchNodes: 2352, SignatureChecked: 2400}},
		goldenRun{2304, 0x0, ProfileResult{StartCandidates: 48, Regions: 48, ExploredCandidates: 2304, SearchNodes: 2352, SignatureChecked: 2400}},
	},
	"bipartite/homomorphism/noNEC=false/baseline": {
		goldenRun{2304, 0x533ccdbc78712941, ProfileResult{StartCandidates: 48, Regions: 48, ExploredCandidates: 2304, SearchNodes: 2352, SignatureChecked: 2400}},
		goldenRun{2304, 0x0, ProfileResult{StartCandidates: 48, Regions: 48, ExploredCandidates: 2304, SearchNodes: 2352, SignatureChecked: 2400}},
	},
	"bipartite/homomorphism/noNEC=true/optimized": {
		goldenRun{2304, 0x533ccdbc78712941, ProfileResult{StartCandidates: 48, Regions: 48, ExploredCandidates: 2304, SearchNodes: 2352, SignatureChecked: 2400}},
		goldenRun{2304, 0x0, ProfileResult{StartCandidates: 48, Regions: 48, ExploredCandidates: 2304, SearchNodes: 2352, SignatureChecked: 2400}},
	},
	"bipartite/homomorphism/noNEC=true/baseline": {
		goldenRun{2304, 0x533ccdbc78712941, ProfileResult{StartCandidates: 48, Regions: 48, ExploredCandidates: 2304, SearchNodes: 2352, SignatureChecked: 2400}},
		goldenRun{2304, 0x0, ProfileResult{StartCandidates: 48, Regions: 48, ExploredCandidates: 2304, SearchNodes: 2352, SignatureChecked: 2400}},
	},
	"bipartite/isomorphism/noNEC=false/optimized": {
		goldenRun{2304, 0x533ccdbc78712941, ProfileResult{StartCandidates: 48, Regions: 48, ExploredCandidates: 2304, SearchNodes: 2352, SignatureChecked: 2400}},
		goldenRun{2304, 0x0, ProfileResult{StartCandidates: 48, Regions: 48, ExploredCandidates: 2304, SearchNodes: 2352, SignatureChecked: 2400}},
	},
	"bipartite/isomorphism/noNEC=false/baseline": {
		goldenRun{2304, 0x533ccdbc78712941, ProfileResult{StartCandidates: 48, Regions: 48, ExploredCandidates: 2304, SearchNodes: 2352, SignatureChecked: 2400}},
		goldenRun{2304, 0x0, ProfileResult{StartCandidates: 48, Regions: 48, ExploredCandidates: 2304, SearchNodes: 2352, SignatureChecked: 2400}},
	},
	"bipartite/isomorphism/noNEC=true/optimized": {
		goldenRun{2304, 0x533ccdbc78712941, ProfileResult{StartCandidates: 48, Regions: 48, ExploredCandidates: 2304, SearchNodes: 2352, SignatureChecked: 2400}},
		goldenRun{2304, 0x0, ProfileResult{StartCandidates: 48, Regions: 48, ExploredCandidates: 2304, SearchNodes: 2352, SignatureChecked: 2400}},
	},
	"bipartite/isomorphism/noNEC=true/baseline": {
		goldenRun{2304, 0x533ccdbc78712941, ProfileResult{StartCandidates: 48, Regions: 48, ExploredCandidates: 2304, SearchNodes: 2352, SignatureChecked: 2400}},
		goldenRun{2304, 0x0, ProfileResult{StartCandidates: 48, Regions: 48, ExploredCandidates: 2304, SearchNodes: 2352, SignatureChecked: 2400}},
	},
	"fig1/homomorphism/noNEC=false/optimized": {
		goldenRun{3, 0x10a912c8b685c7b0, ProfileResult{StartCandidates: 2, Regions: 2, ExploredCandidates: 12, SearchNodes: 12, SignatureChecked: 16}},
		goldenRun{3, 0x0, ProfileResult{StartCandidates: 2, Regions: 2, ExploredCandidates: 12, SearchNodes: 12, SignatureChecked: 16}},
	},
	"fig1/homomorphism/noNEC=false/baseline": {
		goldenRun{3, 0x10a912c8b685c7b0, ProfileResult{StartCandidates: 2, Regions: 2, ExploredCandidates: 12, SearchNodes: 14, SignatureChecked: 16}},
		goldenRun{3, 0x0, ProfileResult{StartCandidates: 2, Regions: 2, ExploredCandidates: 12, SearchNodes: 14, SignatureChecked: 16}},
	},
	"fig1/homomorphism/noNEC=true/optimized": {
		goldenRun{3, 0x10a912c8b685c7b0, ProfileResult{StartCandidates: 2, Regions: 2, ExploredCandidates: 12, SearchNodes: 12, SignatureChecked: 16}},
		goldenRun{3, 0x0, ProfileResult{StartCandidates: 2, Regions: 2, ExploredCandidates: 12, SearchNodes: 12, SignatureChecked: 16}},
	},
	"fig1/homomorphism/noNEC=true/baseline": {
		goldenRun{3, 0x10a912c8b685c7b0, ProfileResult{StartCandidates: 2, Regions: 2, ExploredCandidates: 12, SearchNodes: 14, SignatureChecked: 16}},
		goldenRun{3, 0x0, ProfileResult{StartCandidates: 2, Regions: 2, ExploredCandidates: 12, SearchNodes: 14, SignatureChecked: 16}},
	},
	"fig1/isomorphism/noNEC=false/optimized": {
		goldenRun{1, 0x5dcb58b70cbd06da, ProfileResult{StartCandidates: 2, Regions: 2, ExploredCandidates: 12, SearchNodes: 11, SignatureChecked: 16}},
		goldenRun{1, 0x0, ProfileResult{StartCandidates: 2, Regions: 2, ExploredCandidates: 12, SearchNodes: 11, SignatureChecked: 16}},
	},
	"fig1/isomorphism/noNEC=false/baseline": {
		goldenRun{1, 0x5dcb58b70cbd06da, ProfileResult{StartVertex: 1, StartCandidates: 1, Regions: 1, ExploredCandidates: 6, SearchNodes: 6, SignatureChecked: 10}},
		goldenRun{1, 0x0, ProfileResult{StartVertex: 1, StartCandidates: 1, Regions: 1, ExploredCandidates: 6, SearchNodes: 6, SignatureChecked: 10}},
	},
	"fig1/isomorphism/noNEC=true/optimized": {
		goldenRun{1, 0x5dcb58b70cbd06da, ProfileResult{StartCandidates: 2, Regions: 2, ExploredCandidates: 12, SearchNodes: 11, SignatureChecked: 16}},
		goldenRun{1, 0x0, ProfileResult{StartCandidates: 2, Regions: 2, ExploredCandidates: 12, SearchNodes: 11, SignatureChecked: 16}},
	},
	"fig1/isomorphism/noNEC=true/baseline": {
		goldenRun{1, 0x5dcb58b70cbd06da, ProfileResult{StartVertex: 1, StartCandidates: 1, Regions: 1, ExploredCandidates: 6, SearchNodes: 6, SignatureChecked: 10}},
		goldenRun{1, 0x0, ProfileResult{StartVertex: 1, StartCandidates: 1, Regions: 1, ExploredCandidates: 6, SearchNodes: 6, SignatureChecked: 10}},
	},
	"fig2-empty/homomorphism/noNEC=false/optimized": {
		goldenRun{0, 0xcbf29ce484222325, ProfileResult{StartCandidates: 1, SignatureChecked: 1016, SignatureKilled: 5}},
		goldenRun{0, 0x0, ProfileResult{StartCandidates: 1, SignatureChecked: 1016, SignatureKilled: 5}},
	},
	"fig2-empty/homomorphism/noNEC=false/baseline": {
		goldenRun{0, 0xcbf29ce484222325, ProfileResult{StartCandidates: 1, SignatureChecked: 1011}},
		goldenRun{0, 0x0, ProfileResult{StartCandidates: 1, SignatureChecked: 1011}},
	},
	"fig2-empty/homomorphism/noNEC=true/optimized": {
		goldenRun{0, 0xcbf29ce484222325, ProfileResult{StartCandidates: 1, SignatureChecked: 1016, SignatureKilled: 5}},
		goldenRun{0, 0x0, ProfileResult{StartCandidates: 1, SignatureChecked: 1016, SignatureKilled: 5}},
	},
	"fig2-empty/homomorphism/noNEC=true/baseline": {
		goldenRun{0, 0xcbf29ce484222325, ProfileResult{StartCandidates: 1, SignatureChecked: 1011}},
		goldenRun{0, 0x0, ProfileResult{StartCandidates: 1, SignatureChecked: 1011}},
	},
	"fig2-empty/isomorphism/noNEC=false/optimized": {
		goldenRun{0, 0xcbf29ce484222325, ProfileResult{StartCandidates: 1, SignatureChecked: 1016, SignatureKilled: 5}},
		goldenRun{0, 0x0, ProfileResult{StartCandidates: 1, SignatureChecked: 1016, SignatureKilled: 5}},
	},
	"fig2-empty/isomorphism/noNEC=false/baseline": {
		goldenRun{0, 0xcbf29ce484222325, ProfileResult{StartCandidates: 1, SignatureChecked: 1011}},
		goldenRun{0, 0x0, ProfileResult{StartCandidates: 1, SignatureChecked: 1011}},
	},
	"fig2-empty/isomorphism/noNEC=true/optimized": {
		goldenRun{0, 0xcbf29ce484222325, ProfileResult{StartCandidates: 1, SignatureChecked: 1016, SignatureKilled: 5}},
		goldenRun{0, 0x0, ProfileResult{StartCandidates: 1, SignatureChecked: 1016, SignatureKilled: 5}},
	},
	"fig2-empty/isomorphism/noNEC=true/baseline": {
		goldenRun{0, 0xcbf29ce484222325, ProfileResult{StartCandidates: 1, SignatureChecked: 1011}},
		goldenRun{0, 0x0, ProfileResult{StartCandidates: 1, SignatureChecked: 1011}},
	},
	"nec-star/homomorphism/noNEC=false/optimized": {
		goldenRun{5000, 0x97f48ac49919ada5, ProfileResult{StartCandidates: 40, Regions: 40, ExploredCandidates: 200, SearchNodes: 240, NECClasses: 1, NECMergedVertices: 2, NECExpansionsSkipped: 4960, SignatureChecked: 240}},
		goldenRun{5000, 0x0, ProfileResult{StartCandidates: 40, Regions: 40, ExploredCandidates: 200, SearchNodes: 240, NECClasses: 1, NECMergedVertices: 2, NECExpansionsSkipped: 4960, SignatureChecked: 240}},
	},
	"nec-star/homomorphism/noNEC=false/baseline": {
		goldenRun{5000, 0x97f48ac49919ada5, ProfileResult{StartCandidates: 40, Regions: 40, ExploredCandidates: 200, SearchNodes: 240, NECClasses: 1, NECMergedVertices: 2, NECExpansionsSkipped: 4960, SignatureChecked: 240}},
		goldenRun{5000, 0x0, ProfileResult{StartCandidates: 40, Regions: 40, ExploredCandidates: 200, SearchNodes: 240, NECClasses: 1, NECMergedVertices: 2, NECExpansionsSkipped: 4960, SignatureChecked: 240}},
	},
	"nec-star/homomorphism/noNEC=true/optimized": {
		goldenRun{5000, 0x97f48ac49919ada5, ProfileResult{StartCandidates: 40, Regions: 40, ExploredCandidates: 600, SearchNodes: 6240, SignatureChecked: 640}},
		goldenRun{5000, 0x0, ProfileResult{StartCandidates: 40, Regions: 40, ExploredCandidates: 600, SearchNodes: 6240, SignatureChecked: 640}},
	},
	"nec-star/homomorphism/noNEC=true/baseline": {
		goldenRun{5000, 0x97f48ac49919ada5, ProfileResult{StartCandidates: 40, Regions: 40, ExploredCandidates: 600, SearchNodes: 6240, SignatureChecked: 640}},
		goldenRun{5000, 0x0, ProfileResult{StartCandidates: 40, Regions: 40, ExploredCandidates: 600, SearchNodes: 6240, SignatureChecked: 640}},
	},
	"nec-star/isomorphism/noNEC=false/optimized": {
		goldenRun{2400, 0x87a6858addbb9615, ProfileResult{StartCandidates: 40, Regions: 40, ExploredCandidates: 200, SearchNodes: 240, NECClasses: 1, NECMergedVertices: 2, NECExpansionsSkipped: 2360, SignatureChecked: 240}},
		goldenRun{2400, 0x0, ProfileResult{StartCandidates: 40, Regions: 40, ExploredCandidates: 200, SearchNodes: 240, NECClasses: 1, NECMergedVertices: 2, NECExpansionsSkipped: 2360, SignatureChecked: 240}},
	},
	"nec-star/isomorphism/noNEC=false/baseline": {
		goldenRun{2400, 0x87a6858addbb9615, ProfileResult{StartCandidates: 40, Regions: 40, ExploredCandidates: 200, SearchNodes: 240, NECClasses: 1, NECMergedVertices: 2, NECExpansionsSkipped: 2360, SignatureChecked: 240}},
		goldenRun{2400, 0x0, ProfileResult{StartCandidates: 40, Regions: 40, ExploredCandidates: 200, SearchNodes: 240, NECClasses: 1, NECMergedVertices: 2, NECExpansionsSkipped: 2360, SignatureChecked: 240}},
	},
	"nec-star/isomorphism/noNEC=true/optimized": {
		goldenRun{2400, 0x87a6858addbb9615, ProfileResult{StartCandidates: 40, Regions: 40, ExploredCandidates: 600, SearchNodes: 5240, SignatureChecked: 640}},
		goldenRun{2400, 0x0, ProfileResult{StartCandidates: 40, Regions: 40, ExploredCandidates: 600, SearchNodes: 5240, SignatureChecked: 640}},
	},
	"nec-star/isomorphism/noNEC=true/baseline": {
		goldenRun{2400, 0x87a6858addbb9615, ProfileResult{StartCandidates: 40, Regions: 40, ExploredCandidates: 600, SearchNodes: 5240, SignatureChecked: 640}},
		goldenRun{2400, 0x0, ProfileResult{StartCandidates: 40, Regions: 40, ExploredCandidates: 600, SearchNodes: 5240, SignatureChecked: 640}},
	},
	"point/homomorphism/noNEC=false/optimized": {
		goldenRun{48, 0xd3952be9e07828c1, ProfileResult{StartCandidates: 48, Regions: 48, SearchNodes: 48}},
		goldenRun{48, 0x0, ProfileResult{StartCandidates: 48, Regions: 48, SearchNodes: 48}},
	},
	"point/homomorphism/noNEC=false/baseline": {
		goldenRun{48, 0xd3952be9e07828c1, ProfileResult{StartCandidates: 48, Regions: 48, SearchNodes: 48}},
		goldenRun{48, 0x0, ProfileResult{StartCandidates: 48, Regions: 48, SearchNodes: 48}},
	},
	"point/homomorphism/noNEC=true/optimized": {
		goldenRun{48, 0xd3952be9e07828c1, ProfileResult{StartCandidates: 48, Regions: 48, SearchNodes: 48}},
		goldenRun{48, 0x0, ProfileResult{StartCandidates: 48, Regions: 48, SearchNodes: 48}},
	},
	"point/homomorphism/noNEC=true/baseline": {
		goldenRun{48, 0xd3952be9e07828c1, ProfileResult{StartCandidates: 48, Regions: 48, SearchNodes: 48}},
		goldenRun{48, 0x0, ProfileResult{StartCandidates: 48, Regions: 48, SearchNodes: 48}},
	},
	"point/isomorphism/noNEC=false/optimized": {
		goldenRun{48, 0xd3952be9e07828c1, ProfileResult{StartCandidates: 48, Regions: 48, SearchNodes: 48}},
		goldenRun{48, 0x0, ProfileResult{StartCandidates: 48, Regions: 48, SearchNodes: 48}},
	},
	"point/isomorphism/noNEC=false/baseline": {
		goldenRun{48, 0xd3952be9e07828c1, ProfileResult{StartCandidates: 48, Regions: 48, SearchNodes: 48}},
		goldenRun{48, 0x0, ProfileResult{StartCandidates: 48, Regions: 48, SearchNodes: 48}},
	},
	"point/isomorphism/noNEC=true/optimized": {
		goldenRun{48, 0xd3952be9e07828c1, ProfileResult{StartCandidates: 48, Regions: 48, SearchNodes: 48}},
		goldenRun{48, 0x0, ProfileResult{StartCandidates: 48, Regions: 48, SearchNodes: 48}},
	},
	"point/isomorphism/noNEC=true/baseline": {
		goldenRun{48, 0xd3952be9e07828c1, ProfileResult{StartCandidates: 48, Regions: 48, SearchNodes: 48}},
		goldenRun{48, 0x0, ProfileResult{StartCandidates: 48, Regions: 48, SearchNodes: 48}},
	},
}
