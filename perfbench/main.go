// Command perfbench is the repository's benchmark of the
// shadow-validation serving stack. It starts the system — composed in
// one process the way a bundle-backed ppm-gateway deploys it — as a
// child process, drives one workload against it with a seeded
// single-process load generator, checks every answer, and prints every
// metric by name and unit followed by one JSON result line:
//
//	bash perfbench/run.sh --workload tabular-shadow --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with the benchmark's own spans and reports per-layer
// metrics. --workload all runs every workload in turn. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain())
	}
	name := flag.String("workload", "", "workload to run: tabular-shadow, image-conv, history-read or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	buildDir := flag.String("build-dir", ".bench_build", "directory for scratch files and span output")
	flag.Parse()
	if *name == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *trace, *buildDir))
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(os.Stdout, w, *seed, *seconds, *trace == 1, *buildDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printJSONLine(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runAll runs every workload in its own process, one after the other,
// so each reports its own peak memory.
func runAll(seed int64, seconds float64, trace int, buildDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", strconv.Itoa(trace),
			"-build-dir", buildDir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s: %v\n", w.Name, err)
			code = 1
		}
	}
	return code
}

// run measures one workload once and returns its result line; the
// metric table and the stamp go to out first.
func run(out io.Writer, w *workload, seed int64, seconds float64, traced bool, buildDir string) (*result, error) {
	st := newStamp(w, seed, seconds, traced)
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%g trace=%t\n", w.Name, seed, seconds, traced)
	if err := printJSONLine(out, map[string]any{"stamp": st}); err != nil {
		return nil, err
	}
	tmp := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(tmp, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	// The request pool is the generator's input, drawn from the seed;
	// the system process draws the same pool for its set-up and hands
	// back the backend's answers.
	pool, err := generatePool(w, seed)
	if err != nil {
		return nil, err
	}
	rm, err := startChild(childConfig{Workload: w, Seed: seed, Traced: traced, Dir: scratch})
	if err != nil {
		return nil, err
	}
	defer rm.stop()
	served, err := loadAnswers(rm.ready.PoolFile, pool)
	if err != nil {
		return nil, err
	}
	r := newRunner(w, rm, served)
	defer r.close()
	r.warmUp()
	runtime.GC()

	d, tr := measure(r, seed, seconds, traced)
	d.setupS, d.testScore = rm.ready.SetupS, rm.ready.TestScore
	var vs verdicts
	if err := rm.call("GET", "/verdicts", nil, &vs); err != nil {
		return nil, err
	}
	d.verdicts = vs.ByID
	d.peakRSSMB = rm.usage().PeakRSSMB
	vals, attempted, failed := endToEndMetrics(d)
	if !traced {
		printMetrics(out, endToEnd, vals)
		res := toResult(endToEnd, vals, attempted, failed)
		return &res, nil
	}
	layers, err := layerMetrics(out, d, tr, filepath.Join(buildDir, "traces",
		fmt.Sprintf("%s-seed%d.jsonl", w.Name, seed)), st)
	if err != nil {
		return nil, err
	}
	for _, u := range unbounded {
		layers[u.Name] = vals[u.Name]
	}
	printMetrics(out, perLayer, layers)
	res := toResult(perLayer, layers, attempted, failed)
	return &res, nil
}

// loadAnswers joins the pool with the backend's answers the system
// process wrote.
func loadAnswers(path string, pool []poolBatch) ([]servedBatch, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var answers []answer
	if err := json.Unmarshal(raw, &answers); err != nil {
		return nil, fmt.Errorf("reading answers: %w", err)
	}
	if len(answers) != len(pool) {
		return nil, fmt.Errorf("%d answers for %d pool batches", len(answers), len(pool))
	}
	out := make([]servedBatch, len(pool))
	for i := range pool {
		out[i] = servedBatch{poolBatch: pool[i], Want: answers[i].Want, Acc: answers[i].Acc}
	}
	return out, nil
}

// measure runs the workload's phases — open loop, read, saturation —
// and collects what they measured. In a traced run it also records the
// per-phase probes the layer metrics need.
func measure(r *runner, seed int64, seconds float64, traced bool) (*runData, *traceProbe) {
	w, rm := r.w, r.rm
	d := &runData{pool: r.pool}
	total := time.Duration(seconds * float64(time.Second))
	tr := &traceProbe{rm: rm, on: traced}
	drain := func(phase string) int64 {
		ok, committed := rm.drain(r.served.Load())
		if !ok {
			d.failures = append(d.failures, phase+" phase: shadow queue did not drain")
		}
		return committed
	}
	committed := drain("warm-up")

	// The open-loop set is the open phase, or the read phase's trickle
	// for a workload without one. cpu_ms_per_req covers that phase and
	// its drain: a fixed offered load whose every batch gets a verdict.
	if w.OpenFrac > 0 {
		dur := time.Duration(w.OpenFrac * float64(total))
		arr := arrivals(w.Open, dur, len(r.pool), phaseOpen, rngFor(seed, streamOpen))
		start := time.Now().Add(5 * time.Millisecond)
		cpu0 := rm.usage().CPU
		tr.blockStart(start)
		d.open, d.late = r.openLoop(start, arr, r.conns)
		tr.busyWindow(time.Since(start))
		committed = drain(phaseOpen)
		d.cpu, d.served = rm.usage().CPU-cpu0, int64(okCount(d.open))
	}

	if w.ReadFrac > 0 {
		dur := time.Duration(w.ReadFrac * float64(total))
		trickle := arrivals(schedule{Kind: "poisson", OnRate: w.TrickleRate}, dur, len(r.pool),
			phaseRead, rngFor(seed, streamTrickle))
		start := time.Now().Add(5 * time.Millisecond)
		cpu0 := rm.usage().CPU
		if w.OpenFrac == 0 {
			tr.blockStart(start)
		}
		done := make(chan []op, 1)
		go func() { done <- r.closedReads(start.Add(dur), r.conns[0], seed, committed-1) }()
		var late []float64
		d.trickle, late = r.openLoop(start, trickle, r.conns[len(r.conns)-1:])
		d.reads = <-done
		d.readWall = time.Since(start)
		if w.OpenFrac == 0 {
			tr.busyWindow(d.readWall)
		}
		drain(phaseRead)
		if w.OpenFrac == 0 {
			d.late = late
			d.cpu, d.served = rm.usage().CPU-cpu0, int64(okCount(d.trickle)+okCount(d.reads))
		}
	}
	tr.openPhasesDone()

	if w.SatFrac > 0 {
		dur := time.Duration(w.SatFrac * float64(total))
		start := time.Now()
		d.sat = r.closedWrites(phaseSat, start.Add(dur), seed)
		d.satWall = time.Since(start)
		drain(phaseSat)
	}
	tr.phaseEnd()
	return d, tr
}

func okCount(ops []op) int {
	n := 0
	for i := range ops {
		if ops[i].ok() {
			n++
		}
	}
	return n
}
