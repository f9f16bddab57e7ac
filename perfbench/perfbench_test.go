package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []endToEnd `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkFile(t)
	seen := map[string]bool{}
	checkName := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9_.-] starting with a letter or digit", name)
		}
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q", name, unit)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		checkName(w.Name, "-")
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadNames[i])
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEndMetrics))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		checkName(m.Name, m.Unit)
		if m != endToEndMetrics[i] {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, m, endToEndMetrics[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range b.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v > %v", o.Name, o.Bound, m.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("setup_s (unit s, lower is better) is missing")
	}

	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, m := range b.PerLayer {
		checkName(m.Name, m.Unit)
		want := perLayerMetrics[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %s %s %s", i, m, want.Name, want.Unit, want.Better)
		}
	}
	for _, m := range endToEndMetrics {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayerMetrics {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}

	if len(b.Paths) != 1 || b.Paths[0] != "perfbench" {
		t.Errorf("paths %v, want [perfbench]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", b.RunSeconds)
	}
}

func TestEveryLayerNamesItsEndToEndMetricAndWorkload(t *testing.T) {
	e2e := map[string]bool{}
	for _, m := range endToEndMetrics {
		e2e[m.Name] = true
	}
	wl := map[string]bool{}
	for _, w := range workloadNames {
		wl[w] = true
	}
	for _, m := range perLayerMetrics {
		if len(m.Moves) == 0 || len(m.On) == 0 {
			t.Errorf("%s names no end-to-end metric or no workload", m.Name)
		}
		for _, e := range m.Moves {
			if !e2e[e] {
				t.Errorf("%s moves %q, which is not an end-to-end metric", m.Name, e)
			}
		}
		for _, w := range m.On {
			if !wl[w] {
				t.Errorf("%s names workload %q, which does not exist", m.Name, w)
			}
		}
	}
}

// TestWorkloadSmoke runs each workload briefly, with its output checks,
// and checks the result line.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, tc := range []struct {
		workload string
		traced   bool
	}{
		{wlPipeline, false},
		{wlTrace, false},
		{wlDaemon, true},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			dir := t.TempDir()
			cfg := config{
				workload:      tc.workload,
				seed:          defaultSeed,
				traced:        tc.traced,
				workers:       2,
				jobsPerClient: 2,
				workDir:       dir,
				spanPath:      filepath.Join(dir, "spans.jsonl"),
			}
			r, err := execute(context.Background(), cfg, workloads[tc.workload])
			if err != nil {
				t.Fatal(err)
			}
			if len(r.checks) == 0 {
				t.Fatal("no output check ran")
			}
			for _, c := range r.checks {
				if !c.ok {
					t.Errorf("check %s failed: %s", c.name, c.detail)
				}
			}
			var out bytes.Buffer
			if err := r.report(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result: %v", err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("result %+v\n%s", res, out.String())
			}
			want := len(endToEndMetrics)
			if tc.traced {
				want = len(perLayerMetrics)
			}
			if len(res.Metrics) != want {
				t.Errorf("%d metrics reported, want %d", len(res.Metrics), want)
			}
			for name, m := range res.Metrics {
				if m.Unit != unitOf(name) || m.Unit == "" {
					t.Errorf("%s: unit %q", name, m.Unit)
				}
			}
			if !tc.traced {
				for _, name := range []string{"setup_s", "wall_s", "point_failure_ratio", "surrogate_r2_min"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
					}
				}
			} else if _, err := os.Stat(cfg.spanPath); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
}

func TestJobOfPath(t *testing.T) {
	for path, want := range map[string]string{
		"spool/events/job-0123abcd.jsonl":            "job-0123abcd",
		"spool/results/.job-0123abcd.json.tmp-99881": "job-0123abcd",
		"spool/jobs/job-0123abcd.json":               "job-0123abcd",
	} {
		if got := jobOfPath(path); got != want {
			t.Errorf("jobOfPath(%q) = %q, want %q", path, got, want)
		}
	}
}
