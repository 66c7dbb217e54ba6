// Command benchtables regenerates the tables and figures of the paper's
// evaluation section (§7) at laptop scale.
//
//	benchtables -all                          # everything, default scales
//	benchtables -table 3 -lubm 1,2,4          # Table 3 at three LUBM scales
//	benchtables -fig 15 -lubm 4               # optimization ablation
//
// Output is aligned text, one block per table/figure — per -lubm scale for
// the LUBM ones but Table 2 — in the layout of the paper's tables (engines
// as rows, queries as columns, times in milliseconds averaged with the
// 5-run drop-best/worst protocol).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		table = flag.String("table", "", "table number to regenerate (1-7)")
		fig   = flag.String("fig", "", "figure number to regenerate (6, 15, 16)")
		all   = flag.Bool("all", false, "regenerate every table and figure")
		lubm  = flag.String("lubm", "1,4,16", "comma-separated LUBM scales")
		bsbm  = flag.Int("bsbm", 400, "BSBM products")
		yago  = flag.Int("yago", 2000, "YAGO people")
		btc   = flag.Int("btc", 2000, "BTC people")
	)
	flag.Parse()

	scales, err := parseScales(*lubm)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
	s := bench.Scales{LUBM: scales, BSBM: *bsbm, YAGO: *yago, BTC: *btc}
	want := func(kind, id string) bool {
		switch {
		case *all:
			return true
		case kind == "table":
			return *table == id
		}
		return *fig == id
	}
	selected := blocks(s, want)
	if len(selected) == 0 {
		fmt.Fprintln(os.Stderr, "benchtables: nothing selected; use -all, -table N, or -fig N")
		os.Exit(1)
	}
	for _, b := range selected {
		if _, err := b.build().WriteTo(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: %s: %v\n", b.label, err)
			os.Exit(1)
		}
	}
}

// block is one output block: a table or figure, at one LUBM scale for the
// LUBM ones, built when it is written. label names it, e.g. "fig 16 @ LUBM-4".
type block struct {
	label string
	build func() *bench.Table
}

// blocks lists the selected blocks in output order. Every LUBM table and
// figure but Table 2, which has a column per scale, gets one block per
// scale in s.LUBM.
func blocks(s bench.Scales, want func(kind, id string) bool) []block {
	var out []block
	one := func(kind, id string, build func() *bench.Table) {
		if want(kind, id) {
			out = append(out, block{kind + " " + id, build})
		}
	}
	perScale := func(kind, id string, build func(scale int) *bench.Table) {
		if !want(kind, id) {
			return
		}
		for _, sc := range s.LUBM {
			out = append(out, block{fmt.Sprintf("%s %s @ LUBM-%d", kind, id, sc), func() *bench.Table { return build(sc) }})
		}
	}
	one("table", "1", func() *bench.Table { return bench.Table1(s) })
	one("table", "2", func() *bench.Table { return bench.Table2(s.LUBM) })
	perScale("table", "3", bench.Table3)
	one("table", "4", func() *bench.Table { return bench.Table4(s.YAGO) })
	one("table", "5", func() *bench.Table { return bench.Table5(s.BTC) })
	one("table", "6", func() *bench.Table { return bench.Table6(s.BSBM) })
	perScale("table", "7", bench.Table7)
	perScale("fig", "6", bench.Fig6)
	perScale("fig", "15", bench.Fig15)
	perScale("fig", "16", func(sc int) *bench.Table { return bench.Fig16(sc, nil) })
	return out
}

func parseScales(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad LUBM scale %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
