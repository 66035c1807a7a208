package main

// Result assembly: the end-to-end metrics of the untraced run, the
// result line the benchmark prints last, and the stamp that keys every
// result to a build and a machine.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// metricDef names one metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics of an untraced run, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ok_frac", "ratio"},
	{"sat_coverage", "ratio"},
	{"verdict_coverage", "ratio"},
	{"cpu_ms_per_req", "ms"},
	{"peak_rss_mb", "MB"},
	{"h_abs_err_p50", "accuracy"},
	{"verdict_f1", "ratio"},
}

// unbounded are end-to-end figures whose run-to-run spread on 2 vCPUs
// is wider than any bound an end-to-end metric may carry: wall-clock
// figures move by a third when the machine hands the VM less CPU for a
// run, a run's p99 is set by the one or two bursts that meet a GC cycle
// or a tsdb compaction, and saturation throughput by how the two CPUs
// happen to split between serving and the always-busy shadow worker.
// The traced run reports them among the per-layer metrics, without a
// bound.
var unbounded = []metricDef{
	{"lat_p50_ms", "ms"},
	{"verdict_lag_p50_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"read_rps", "req/s"},
	{"lat_p99_ms", "ms"},
	{"verdict_lag_p99_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"sat_rps", "req/s"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp keys a result to the build, the machine and the inputs.
type stamp struct {
	GitRev       string  `json:"git_rev"`
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"nproc"`
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
	Dataset      string  `json:"dataset"`
	Model        string  `json:"model"`
	RowsPerBatch int     `json:"rows_per_batch"`
	PoolBatches  int     `json:"pool_batches"`
	CorruptFrac  float64 `json:"corrupt_frac"`
	Conns        int     `json:"conns"`
	Arrival      string  `json:"arrival"`
	TrickleRate  float64 `json:"trickle_rate"`
	Phases       string  `json:"phases"`
	Prefill      int     `json:"prefill_windows"`
	SetupReps    int     `json:"setup_reps"`
}

func newStamp(w *workload, seed int64, seconds float64, traced bool) stamp {
	arrival := "none"
	if w.OpenFrac > 0 {
		arrival = w.Open.String()
	}
	return stamp{
		GitRev: gitRev(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Workload: w.Name, Seed: seed, Seconds: seconds, Trace: traced,
		Dataset: w.Dataset, Model: w.Model, RowsPerBatch: w.Rows, PoolBatches: w.Pool,
		CorruptFrac: w.CorruptFrac, Conns: w.Conns, Arrival: arrival,
		TrickleRate: w.TrickleRate,
		Phases: fmt.Sprintf("open %.0f%%, read %.0f%%, sat %.0f%%",
			w.OpenFrac*100, w.ReadFrac*100, w.SatFrac*100),
		Prefill: w.Prefill, SetupReps: w.SetupReps,
	}
}

// gitRev reads the revision the binary was built from, when the build
// ran inside a git work tree.
func gitRev() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// quantile is the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runData is everything a run measured, handed to the metric
// computations.
type runData struct {
	pool      []servedBatch
	testScore float64
	verdicts  map[string]verdict
	peakRSSMB float64
	setupS    []float64
	open      []op // open-phase writes
	trickle   []op // the read phase's open-loop write trickle
	reads     []op
	sat       []op
	late      []float64 // dispatch lateness of the open-loop set
	readWall  time.Duration
	satWall   time.Duration
	cpu       time.Duration // process CPU over the open-loop phase and its drain
	served    int64         // requests answered OK in that phase
	failures  []string      // correctness failures outside the ops
}

// openLoop is the open-loop write set the latency and verdict metrics
// are taken over: the open phase, or the read phase's trickle for a
// workload without an open phase.
func (d *runData) openLoop() []op {
	if len(d.open) > 0 {
		return d.open
	}
	return d.trickle
}

// latencyOrLimit is a request's latency, or at least the limit when it
// failed: a failed request misses the limit.
func latencyOrLimit(o *op) float64 {
	l := ms(o.latency())
	if !o.ok() && l < ms(limit) {
		l = ms(limit)
	}
	return l
}

// endToEndMetrics computes the untraced run's metrics and counts its
// operations.
func endToEndMetrics(d *runData) (map[string]float64, int64, int64) {
	m := map[string]float64{"setup_s": median(d.setupS)}
	var attempted, failed int64
	count := func(ops []op) {
		for i := range ops {
			attempted++
			if !ops[i].ok() {
				failed++
			}
		}
	}
	count(d.open)
	count(d.trickle)
	count(d.reads)
	count(d.sat)

	// h_abs_err_p50 and verdict_f1 count each distinct batch once: a
	// batch's verdict is a pure function of its model outputs, so
	// repeats would only reweight the pool.
	var lat, lag, absErr []float64
	var servedOK, verdicted int
	var tp, fp, fn int
	seen := map[int]bool{}
	line := (1 - threshold) * d.testScore
	open := d.openLoop()
	for i := range open {
		o := &open[i]
		lat = append(lat, latencyOrLimit(o))
		if !o.ok() {
			continue
		}
		servedOK++
		v, ok := d.verdicts[o.ID]
		if !ok {
			continue
		}
		verdicted++
		acc := d.pool[o.Batch].Acc
		if math.IsNaN(acc) || acc < 0 || acc > 1 {
			attempted++
			failed++
			continue
		}
		lag = append(lag, ms(v.at().Sub(o.Due)))
		if seen[o.Batch] {
			continue
		}
		seen[o.Batch] = true
		absErr = append(absErr, math.Abs(v.Estimate-acc))
		truth := acc < line
		switch {
		case v.Violating && truth:
			tp++
		case v.Violating:
			fp++
		case truth:
			fn++
		}
	}
	attempted += int64(len(d.failures))
	failed += int64(len(d.failures))
	m["lat_p50_ms"] = median(lat)
	m["lat_p99_ms"] = quantile(lat, 0.99)
	m["verdict_coverage"] = ratio(verdicted, servedOK)
	m["verdict_lag_p50_ms"] = median(lag)
	m["verdict_lag_p99_ms"] = quantile(lag, 0.99)
	m["h_abs_err_p50"] = median(absErr)
	m["verdict_f1"] = ratio(2*tp, 2*tp+fp+fn)

	var satOK, satInLimit, satVerdicted int
	for i := range d.sat {
		o := &d.sat[i]
		if !o.ok() {
			continue
		}
		satOK++
		if o.latency() <= limit {
			satInLimit++
		}
		if _, ok := d.verdicts[o.ID]; ok {
			satVerdicted++
		}
	}
	m["sat_rps"] = float64(satInLimit) / d.satWall.Seconds()
	m["sat_coverage"] = ratio(satVerdicted, satOK)

	var readLat []float64
	var readOK int
	for i := range d.reads {
		o := &d.reads[i]
		readLat = append(readLat, latencyOrLimit(o))
		if o.ok() {
			readOK++
		}
	}
	m["read_rps"] = float64(readOK) / d.readWall.Seconds()
	m["read_p50_ms"] = median(readLat)
	m["read_p99_ms"] = quantile(readLat, 0.99)
	m["cpu_ms_per_req"] = ms(d.cpu) / float64(max(d.served, 1))
	m["peak_rss_mb"] = d.peakRSSMB
	m["ok_frac"] = 1 - float64(failed)/float64(max(attempted, 1))
	return m, attempted, failed
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// printMetrics writes one "name value unit" line per metric.
func printMetrics(w io.Writer, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %14.6f %s\n", d.Name, vals[d.Name], d.Unit)
	}
}

// toResult packages metric values with their units.
func toResult(defs []metricDef, vals map[string]float64, attempted, failed int64) result {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		r.Metrics[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	return r
}

func printJSONLine(w io.Writer, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
