package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"text/tabwriter"
)

// readReports loads the report lines of a file written by one or more runs.
// Result lines (the driver's contract) carry no workload and are skipped.
// Several runs of one workload fold into one report whose metric values are
// the medians over the runs.
func readReports(path string) (map[string][]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil || r.Workload == "" {
			continue
		}
		key := r.Workload
		if r.Trace {
			key += "/trace"
		}
		out[key] = append(out[key], &r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no report line", path)
	}
	return out, nil
}

// side is one file's view of a metric on a workload: the median over its
// runs and their spread. With fewer than five runs the spread is the widest
// one inside a run, between its slices — which also holds drift, such as an
// update's cost growing with the delta.
type side struct {
	median, spread float64
	ok             bool
}

func sideOf(runs []*report, name string) side {
	var vals []float64
	worst := 0.0
	for _, r := range runs {
		v, ok := r.Metrics[name]
		if !ok {
			continue
		}
		vals = append(vals, v.Value)
		worst = max(worst, spread(v.Segments))
	}
	if len(vals) == 0 {
		return side{}
	}
	if len(vals) >= segments {
		worst = spread(vals)
	}
	return side{median: median(vals), spread: worst, ok: true}
}

// compareMain prints one row per (end-to-end metric, workload) of two report
// files and returns the process exit code: 1 if any row regressed, an op
// failed, or a count of work differs between two runs of one commit.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare base.jsonl change.jsonl")
		return 2
	}
	base, err := readReports(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	change, err := readReports(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}

	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "workload\tmetric\tunit\tbase\tchange\tchange/base\tspread\tbound\tverdict\t")
	bad := 0
	for _, wd := range workloadDefs {
		b, c := base[wd.Name], change[wd.Name]
		if b == nil || c == nil {
			continue
		}
		for _, d := range untraced {
			sb, sc := sideOf(b, d.Name), sideOf(c, d.Name)
			if !sb.ok || !sc.ok || sb.median == 0 {
				continue
			}
			ratio := sc.median / sb.median
			worse := ratio - 1
			if d.Better == higher {
				worse = 1 - ratio
			}
			sp := max(sb.spread, sc.spread)
			verdict := "ok"
			switch {
			case d.Bound == 0:
				verdict = "not gated"
			case worse > d.Bound:
				verdict = "regressed"
				bad++
			case sp > d.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%.4g\t%.4g\t%.3f of %.4g\t%.1f%%\t%.0f%%\t%s\t\n",
				wd.Name, d.Name, d.Unit, sb.median, sc.median, ratio, sb.median, 100*sp, 100*d.Bound, verdict)
		}
		for _, side := range [][]*report{b, c} {
			for _, r := range side {
				if !r.Correct {
					fmt.Fprintf(w, "%s\tfailed ops\tcount\t\t%d of %d\t\t\t\tregressed\t\n", wd.Name, r.Failed, r.Attempted)
					bad++
				}
			}
		}
	}
	// Counts of work repeat exactly for one seed and one commit; between
	// commits a difference is shown but is not by itself a regression.
	for _, wd := range workloadDefs {
		b, c := base[wd.Name+"/trace"], change[wd.Name+"/trace"]
		if b == nil || c == nil || b[0].Env.Seed != c[0].Env.Seed {
			continue
		}
		for _, d := range perLayer {
			vb, vc := b[0].Metrics[d.Name], c[0].Metrics[d.Name]
			if !exactCounts[d.Name] || vb.Value == vc.Value {
				continue
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%.0f\t%.0f\t\t\texact\tdiffers\t\n", wd.Name, d.Name, d.Unit, vb.Value, vc.Value)
			if b[0].Env.Commit == c[0].Env.Commit {
				bad++
			}
		}
	}
	w.Flush()
	if bad > 0 {
		return 1
	}
	return 0
}
