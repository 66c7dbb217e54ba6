package engine

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/rdf"
	"repro/internal/transform"
)

// groupGolden is the recorded outcome of one query: the row count and an
// FNV-64a hash over the ordered projected rows.
type groupGolden struct {
	rows int
	hash uint64
}

// hashRows folds a row sequence into a groupGolden, row order included.
func hashRows(rows [][]rdf.Term) groupGolden {
	h := fnv.New64a()
	for _, row := range rows {
		h.Write([]byte(rowString(row)))
		h.Write([]byte{'\x1e'})
	}
	return groupGolden{len(rows), h.Sum64()}
}

// TestGroupEvaluatorGolden pins the group evaluator's ordered output on the
// generated benchmark workloads: for BSBM (OPTIONAL, nested OPTIONAL,
// !bound, UNION, FILTER) and LUBM, under both transformations and at
// Workers 1 and 2, every query's Exec and Select row sequences must hash to
// the table below and Count must return its row count. The table was
// recorded from the evaluator that ran OPTIONAL sub-groups breadth-first
// and materialized the first component for Exec and Count, so it holds the
// single streaming evaluator to that evaluator's exact row order.
func TestGroupEvaluatorGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("generated-workload golden")
	}
	ctx := context.Background()
	for _, ds := range []*datagen.Dataset{datagen.BSBMDataset(200), datagen.LUBMDataset(1)} {
		for _, mode := range []transform.Mode{transform.TypeAware, transform.Direct} {
			data := transform.Build(ds.Triples, mode)
			for _, workers := range []int{1, 2} {
				opts := core.Optimized()
				opts.Workers = workers
				e := New(data, opts)
				for _, q := range ds.Queries {
					key := fmt.Sprintf("%s/%s/%s", ds.Name, mode, q.ID)
					name := fmt.Sprintf("%s/workers=%d", key, workers)
					pq, err := e.Prepare(q.Text)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					res, err := pq.Exec(ctx)
					if err != nil {
						t.Fatalf("%s: Exec: %v", name, err)
					}
					exec := hashRows(res.Rows)
					want, ok := groupEvaluatorGolden[key]
					if !ok || exec != want {
						t.Errorf("%s: Exec diverged from the recorded run; got\n\t%q: {%d, %#x},", name, key, exec.rows, exec.hash)
					}
					if sel := hashRows(drain(t, pq.Select(ctx))); sel != exec {
						t.Errorf("%s: Select %+v, Exec %+v", name, sel, exec)
					}
					n, err := pq.Count(ctx)
					if err != nil {
						t.Fatalf("%s: Count: %v", name, err)
					}
					if n != exec.rows {
						t.Errorf("%s: Count %d, Exec %d rows", name, n, exec.rows)
					}
				}
			}
		}
	}
}

var groupEvaluatorGolden = map[string]groupGolden{
	"BSBM200/type-aware/Q1":  {3, 0x9945754ccc09bba7},
	"BSBM200/type-aware/Q2":  {1, 0x4ab1d97969446519},
	"BSBM200/type-aware/Q3":  {6, 0x9f09cb8a27e8276d},
	"BSBM200/type-aware/Q4":  {27, 0xe74eae70d7918fa0},
	"BSBM200/type-aware/Q5":  {8, 0x67544f912d882583},
	"BSBM200/type-aware/Q6":  {18, 0x772e4308ee39371d},
	"BSBM200/type-aware/Q7":  {12, 0x9cd62ee2bda82abb},
	"BSBM200/type-aware/Q8":  {2, 0xf226f3b03449772d},
	"BSBM200/type-aware/Q9":  {1, 0xed6640b1a80f6981},
	"BSBM200/type-aware/Q10": {1, 0x945b6495c4ad1f1e},
	"BSBM200/type-aware/Q11": {6, 0xb8c20afc0dab9a85},
	"BSBM200/type-aware/Q12": {1, 0xb48576483cc2cc70},
	"BSBM200/direct/Q1":      {3, 0x9945754ccc09bba7},
	"BSBM200/direct/Q2":      {1, 0x4ab1d97969446519},
	"BSBM200/direct/Q3":      {6, 0x9f09cb8a27e8276d},
	"BSBM200/direct/Q4":      {27, 0xe74eae70d7918fa0},
	"BSBM200/direct/Q5":      {8, 0x67544f912d882583},
	"BSBM200/direct/Q6":      {18, 0x772e4308ee39371d},
	"BSBM200/direct/Q7":      {12, 0x9cd62ee2bda82abb},
	"BSBM200/direct/Q8":      {2, 0xf226f3b03449772d},
	"BSBM200/direct/Q9":      {1, 0xed6640b1a80f6981},
	"BSBM200/direct/Q10":     {1, 0x945b6495c4ad1f1e},
	"BSBM200/direct/Q11":     {6, 0xa781a81284f66add},
	"BSBM200/direct/Q12":     {1, 0xb48576483cc2cc70},
	"LUBM1/type-aware/Q1":    {3, 0xc18d59814598218f},
	"LUBM1/type-aware/Q2":    {3, 0xd5a38ffc93eb8160},
	"LUBM1/type-aware/Q3":    {3, 0x8a158131dd5a41c5},
	"LUBM1/type-aware/Q4":    {12, 0x7cf1cf0b10738e0e},
	"LUBM1/type-aware/Q5":    {180, 0x26fb1b462f2aea33},
	"LUBM1/type-aware/Q6":    {653, 0xc3c04b336e2ba574},
	"LUBM1/type-aware/Q7":    {15, 0xcb7d9c5711aa8c24},
	"LUBM1/type-aware/Q8":    {653, 0xc233773a7b22185a},
	"LUBM1/type-aware/Q9":    {49, 0x9adeea6fdff1a2ae},
	"LUBM1/type-aware/Q10":   {3, 0xc18d59814598218f},
	"LUBM1/type-aware/Q11":   {22, 0x6ad301bdc992dbf8},
	"LUBM1/type-aware/Q12":   {5, 0x45afdde26a64178a},
	"LUBM1/type-aware/Q13":   {8, 0x81d57dae975a98d0},
	"LUBM1/type-aware/Q14":   {500, 0xeb0d896eeca7ceb1},
	"LUBM1/direct/Q1":        {3, 0xc18d59814598218f},
	"LUBM1/direct/Q2":        {3, 0xd5a38ffc93eb8160},
	"LUBM1/direct/Q3":        {3, 0x8a158131dd5a41c5},
	"LUBM1/direct/Q4":        {12, 0x7cf1cf0b10738e0e},
	"LUBM1/direct/Q5":        {180, 0x26fb1b462f2aea33},
	"LUBM1/direct/Q6":        {653, 0xc3c04b336e2ba574},
	"LUBM1/direct/Q7":        {15, 0xcb7d9c5711aa8c24},
	"LUBM1/direct/Q8":        {653, 0xc233773a7b22185a},
	"LUBM1/direct/Q9":        {49, 0x9adeea6fdff1a2ae},
	"LUBM1/direct/Q10":       {3, 0xc18d59814598218f},
	"LUBM1/direct/Q11":       {22, 0x6ad301bdc992dbf8},
	"LUBM1/direct/Q12":       {5, 0x45afdde26a64178a},
	"LUBM1/direct/Q13":       {8, 0x81d57dae975a98d0},
	"LUBM1/direct/Q14":       {500, 0xeb0d896eeca7ceb1},
}
