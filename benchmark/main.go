// Command benchmark is this repository's benchmark: four workloads over one
// generated LUBM dataset, driven only through the public surface, with the
// end-to-end metrics of BENCHMARK.json measured untraced and the per-layer
// metrics measured in a separate traced run. See README.md.
//
//	bash benchmark/run.sh --workload lubm_scan --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// env stamps a report with what the numbers depend on besides the code.
type env struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      int     `json:"lubm_universities"`
	Triples    int     `json:"triples"`
	WALPolicy  string  `json:"wal_flush_policy"`
}

// commit reads the checked-out commit from .git without running git; the
// driver's checkout is not a repository, and there it is "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", name))
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(b))
	}
	return ref
}

func newReport(cfg config, sp *spec) *report {
	return &report{
		Workload: sp.Name,
		Why:      sp.Why,
		Trace:    cfg.trace,
		Env: env{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Commit: commit(),
			Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale,
			WALPolicy: "SyncWAL=false: appended and checksummed, not fsynced per update",
		},
		Metrics: map[string]value{},
	}
}

func (r *report) set(name string, v float64, segs []float64) {
	defs := untraced
	if r.Trace {
		defs = perLayer
	}
	r.Metrics[name] = value{Value: v, Unit: unitOf(defs, name), Segments: append([]float64(nil), segs...), Exact: exactCounts[name]}
}

// noiseLimit is how far the two speed calibrations may differ before the
// run is marked noisy.
const noiseLimit = 0.10

func (r *report) finish(attempted int, fails *failures) {
	r.Attempted, r.Failed, r.Failures = attempted, fails.n, fails.msgs
	r.Correct = fails.n == 0
	r.Noisy = math.Abs(r.SpinAfter-r.SpinBefore) > noiseLimit*r.SpinBefore
}

// result keeps only what the driver's contract names.
func (r *report) result() result {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	res := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			// Only a traced run may leave a layer out: the workload does not
			// reach it.
			v = value{Unit: d.Unit}
		}
		res.Metrics[d.Name] = value{Value: v.Value, Unit: v.Unit}
	}
	return res
}

func run(cfg config) (*report, error) {
	if specs[cfg.workload] == nil {
		names := make([]string, 0, len(workloadDefs))
		for _, w := range workloadDefs {
			names = append(names, w.Name)
		}
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(names, ", "))
	}
	if cfg.trace {
		return runTraced(cfg)
	}
	return runEndToEnd(cfg)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	cfg := defaultConfig()
	trace := 0
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: lubm_adhoc, lubm_scan, serve_zipf or store_churn")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of the generated dataset and of every schedule")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	cfg.trace = trace != 0

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := enc.Encode(rep.result()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
