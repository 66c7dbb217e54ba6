package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric tables")

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// boundedMetric forces "bound" into every end-to-end row and out of every
// per-layer row, as the contract spells them.
type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func wantManifest() []byte {
	bounded := make([]boundedMetric, len(endToEnd))
	for i, d := range endToEnd {
		bounded[i] = boundedMetric(d)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(struct { //nolint:errcheck // plain data into a buffer
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadDef   `json:"workloads"`
		EndToEnd   []boundedMetric `json:"end_to_end"`
		PerLayer   []metricDef     `json:"per_layer"`
	}{
		[]string{"bash", "benchmark/run.sh"}, []string{"benchmark"},
		int(defaultConfig().seconds), workloadDefs, bounded, perLayer,
	})
	return buf.Bytes()
}

// TestManifest keeps BENCHMARK.json and the tables in metrics.go one thing.
func TestManifest(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := wantManifest()
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from the tables in metrics.go; run go test -run TestManifest -update")
	}
	var m manifest
	if err := json.Unmarshal(got, &m); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), m.EndToEnd...), m.PerLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range m.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func smokeConfig(t *testing.T, workload string, seed int64, trace bool) config {
	cfg := defaultConfig()
	cfg.workload, cfg.seed, cfg.trace = workload, seed, trace
	cfg.seconds, cfg.scale, cfg.setups = 0.25, 1, 1
	cfg.warmScale, cfg.burst = 0.05, 10
	cfg.spin = 5 * time.Millisecond
	cfg.outDir = t.TempDir()
	return cfg
}

// TestSmoke runs every workload, untraced and traced, on LUBM-1 for a
// fraction of a second: every metric of BENCHMARK.json must come out finite
// with its unit, and no op may fail.
func TestSmoke(t *testing.T) {
	for _, wd := range workloadDefs {
		for _, trace := range []bool{false, true} {
			rep, err := run(smokeConfig(t, wd.Name, 1, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wd.Name, trace, err)
			}
			if !rep.Correct || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", wd.Name, trace, rep.Failed, rep.Attempted, rep.Failures)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			res := rep.result()
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wd.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", wd.Name, trace, d.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", wd.Name, trace, d.Name, v.Value)
				case v.Unit != d.Unit || v.Unit == "":
					t.Errorf("%s trace=%v: %s has unit %q, want %q", wd.Name, trace, d.Name, v.Unit, d.Unit)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wd.Name, d.Name, v.Value)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%v: result line: %v", wd.Name, trace, err)
			}
		}
	}
}

// scheduleTexts renders the first n ops of a workload's schedule.
func scheduleTexts(t *testing.T, workload string, seed int64, n int) []string {
	sp := specs[workload]
	p, err := newPrepared(generate(seed, 1), smokeConfig(t, workload, seed, false), sp, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	next := sp.schedule(p, 0, 0, &updateGen{in: p.in, r: scheduleRNG(seed, 1000)})
	var out []string
	for i := 0; i < n; i++ {
		switch o := next(); o.kind {
		case opQuery:
			out = append(out, p.texts[o.key])
		case opUpdate:
			out = append(out, o.text)
		default:
			out = append(out, "compact")
		}
	}
	return out
}

// TestSeedDeterminism: the same seed gives the same schedules and the same
// counts of matcher work; another seed gives other texts.
func TestSeedDeterminism(t *testing.T) {
	for _, wd := range workloadDefs {
		a, b := scheduleTexts(t, wd.Name, 1, 300), scheduleTexts(t, wd.Name, 1, 300)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: op %d differs between two schedules of seed 1", wd.Name, i)
			}
		}
	}
	a, c := scheduleTexts(t, "lubm_adhoc", 1, 300), scheduleTexts(t, "lubm_adhoc", 2, 300)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > len(a)/10 {
		t.Errorf("lubm_adhoc: %d of %d ops have the same text under seeds 1 and 2", same, len(a))
	}

	r1, err := run(smokeConfig(t, "lubm_adhoc", 1, true))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := run(smokeConfig(t, "lubm_adhoc", 1, true))
	if err != nil {
		t.Fatal(err)
	}
	for name := range exactCounts {
		if r1.Metrics[name].Value != r2.Metrics[name].Value {
			t.Errorf("%s: %v then %v for the same seed", name, r1.Metrics[name].Value, r2.Metrics[name].Value)
		}
	}
	if r1.Metrics["core.search_nodes"].Value == 0 {
		t.Error("core.search_nodes is 0: the traced run profiled nothing")
	}
}
