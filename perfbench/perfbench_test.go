package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestMain lets the test binary double as the system process the
// benchmark starts for each run.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain())
	}
	os.Exit(m.Run())
}

// tiny shrinks a workload so a run takes seconds: small pools, light
// training, one set-up, low rates.
func tiny(w *workload) *workload {
	t := *w
	t.Pool = 24
	t.SetupReps = 1
	t.Prefill = min(t.Prefill, 64)
	t.Open.OnRate = min(t.Open.OnRate, 40)
	t.Open.OffRate = min(t.Open.OffRate, 20)
	t.TrickleRate = min(t.TrickleRate, 5)
	t.Train.Reps = 4
	t.Train.ValBatches = 12
	t.Train.ValPredReps = 2
	t.Train.Epochs = 1
	if t.Dataset == "income" {
		t.Train.DataRows = 3000
		t.Rows = 100
	} else {
		t.Train.DataRows = 240
	}
	return &t
}

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatalf("decoding BENCHMARK.json: %v", err)
	}
	return bf
}

// TestMetricTablesMatchBenchmarkFile pins the metric names and units the
// program emits to the ones BENCHMARK.json declares.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	check := func(kind string, defs []metricDef, declared []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(defs) != len(declared) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(declared))
		}
		for i, d := range defs {
			if d.Name != declared[i].Name || d.Unit != declared[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, d.Name, d.Unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: program %s, BENCHMARK.json %s", i, w.Name, bf.Workloads[i].Name)
		}
	}
}

// runTiny runs one tiny workload and returns its result line.
func runTiny(t *testing.T, w *workload, seed int64, traced bool) *result {
	t.Helper()
	var out bytes.Buffer
	res, err := run(&out, tiny(w), seed, 3, traced, t.TempDir())
	if err != nil {
		t.Fatalf("%s trace=%t: %v\n%s", w.Name, traced, err, out.String())
	}
	return res
}

// checkMetrics asserts that every named metric is present, finite and
// carries its unit.
func checkMetrics(t *testing.T, name string, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%t attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", name, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", name, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s is %v", name, d.Name, m.Value)
		}
	}
}

// TestEveryMetricEmitted runs each workload at tiny size, untraced and
// traced, and checks every named metric.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark end to end")
	}
	for _, w := range workloads {
		checkMetrics(t, w.Name, runTiny(t, w, 1, false), endToEnd)
		checkMetrics(t, w.Name+" traced", runTiny(t, w, 1, true), perLayer)
	}
}

// TestSeedDeterminesInputs checks that a seed yields byte-identical
// request bodies and schedules, and that different seeds differ.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		w := tiny(w)
		inputs := func(seed int64) ([]poolBatch, []arrival, []arrival) {
			pool, err := generatePool(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			open := w.Open
			if open.OnRate == 0 {
				open = schedule{Kind: "poisson", OnRate: 20}
			}
			sched := arrivals(open, 5*time.Second, len(pool), phaseOpen, rngFor(seed, streamOpen))
			trickle := arrivals(schedule{Kind: "poisson", OnRate: 20}, 5*time.Second, len(pool), phaseRead, rngFor(seed, streamTrickle))
			return pool, sched, trickle
		}
		p1, s1, r1 := inputs(7)
		p2, s2, r2 := inputs(7)
		if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(r1, r2) {
			t.Errorf("%s: seed 7 gave different inputs on two draws", w.Name)
		}
		p3, s3, _ := inputs(8)
		if reflect.DeepEqual(p1, p3) || reflect.DeepEqual(s1, s3) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", w.Name)
		}
		if len(s1) == 0 || len(p1) != w.Pool {
			t.Errorf("%s: %d arrivals, %d pool batches", w.Name, len(s1), len(p1))
		}
	}
}

// TestQualityMetricsRepeat checks that h_abs_err_p50 and verdict_f1
// repeat exactly for a fixed seed when every open-loop batch got its
// verdict.
func TestQualityMetricsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark end to end")
	}
	for _, w := range workloads[:2] {
		a := runTiny(t, w, 3, false)
		b := runTiny(t, w, 3, false)
		if a.Metrics["verdict_coverage"].Value != 1 || b.Metrics["verdict_coverage"].Value != 1 {
			t.Fatalf("%s: verdict coverage %v / %v, want 1", w.Name,
				a.Metrics["verdict_coverage"].Value, b.Metrics["verdict_coverage"].Value)
		}
		for _, name := range []string{"h_abs_err_p50", "verdict_f1"} {
			if a.Metrics[name].Value != b.Metrics[name].Value {
				t.Errorf("%s: %s %v then %v", w.Name, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
	}
}
