package main

// The traced run. It drives the same phases as the untraced run, with
// three additions that time the layers from outside the program:
//
//   - a middleware around the backend handler records each request's
//     handler interval, but only in alternate one-second blocks, so
//     the run's traced and untraced requests give the tracing overhead;
//   - a poller reads the shadow queue depth from /metrics and samples
//     process CPU;
//   - after the phases, a per-batch layer replay calls the public
//     functions the serving path runs, over the run's recorded request
//     and response bodies, in the order the backend and the shadow
//     worker run them.
//
// Spans (client request, backend handler, verdict, and one replay span
// per batch with a child per layer call) are kept in memory and written
// as JSON lines when the run ends. End-to-end metrics always come from
// the untraced run.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"blackboxval/internal/cloud"
	"blackboxval/internal/core"
	"blackboxval/internal/gateway"
	"blackboxval/internal/linalg"
	"blackboxval/internal/monitor"
	"blackboxval/internal/obs"
	"blackboxval/internal/obs/tsdb"
	"blackboxval/internal/stats"
)

// perLayer lists the metrics of a traced run, in print order.
var perLayer = []metricDef{
	{"gateway.request_ms_p50", "ms"},
	{"gateway.request_ms_p99", "ms"},
	{"gateway.self_ms_p50", "ms"},
	{"gateway.shadow_depth_max", "count"},
	{"gateway.shadow_dropped", "count"},
	{"gateway.shadow_undecodable", "count"},
	{"cloud.server_ms_p50", "ms"},
	{"cloud.server_ms_p99", "ms"},
	{"cloud.decode_request_us_p50", "us"},
	{"cloud.decode_request_allocs", "count"},
	{"cloud.parse_proba_us_p50", "us"},
	{"cloud.parse_proba_allocs", "count"},
	{"models.predict_proba_us_p50", "us"},
	{"core.prediction_statistics_us_p50", "us"},
	{"core.estimate_us_p50", "us"},
	{"core.validator_us_p50", "us"},
	{"core.validator_allocs", "count"},
	{"stats.ks_us_p50", "us"},
	{"monitor.observe_us_p50", "us"},
	{"monitor.observe_us_p99", "us"},
	{"monitor.observe_allocs", "count"},
	{"monitor.other_us_p50", "us"},
	{"monitor.observe_live_us_p50", "us"},
	{"monitor.busy_frac", "ratio"},
	{"obs.timeline_commit_us_p50", "us"},
	{"obs.spans_per_req", "count"},
	{"obs.metrics_render_ms_p50", "ms"},
	{"tsdb.append_us_p50", "us"},
	{"tsdb.query_ms_p50", "ms"},
	{"tsdb.query_ms_p99", "ms"},
	{"tsdb.bytes_on_disk", "bytes"},
	{"fed.federate_ms_p50", "ms"},
	{"fed.doc_bytes", "bytes"},
	{"lat_p50_ms", "ms"},
	{"verdict_lag_p50_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"read_rps", "req/s"},
	{"lat_p99_ms", "ms"},
	{"verdict_lag_p99_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"sat_rps", "req/s"},
	{"bench.gen_late_ms_p99", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.trace_cpu_overhead_frac", "ratio"},
}

// blockLen is the length of the alternating traced/untraced blocks: a
// whole number of on/off periods, so traced and untraced blocks see the
// same burst pattern.
const blockLen = time.Second

// pollEvery is the system-process poller's period.
const pollEvery = 50 * time.Millisecond

// traceProbe drives the traced run's probes in the system process. On
// an untraced run every method is a no-op.
type traceProbe struct {
	rm *remote
	on bool

	origin   time.Time // start of the first block
	openEnd  time.Time
	stats0   sysStats
	end      probeResult
	busyMark float64
	busyFrac float64
	slo      gateway.SLODoc
}

// stageBusy is the monitor_observe stage's total time so far.
func stageBusy(doc gateway.SLODoc) float64 {
	for _, st := range doc.Stages {
		if st.Stage == gateway.StageMonitorObserve {
			return float64(st.Count) * st.Mean
		}
	}
	return 0
}

func stageQuantiles(doc gateway.SLODoc, stage string) (p50, p99 float64) {
	for _, st := range doc.Stages {
		if st.Stage == stage {
			return st.P50, st.P99
		}
	}
	return 0, 0
}

// blockStart starts the alternating traced/untraced blocks and the
// poller at t.
func (p *traceProbe) blockStart(t time.Time) {
	if !p.on {
		return
	}
	p.origin = t
	p.rm.call(http.MethodPost, fmt.Sprintf("/trace/start?origin=%d", t.UnixNano()), nil, &p.stats0)
	p.busyMark = stageBusy(p.rm.slo())
}

// busyWindow closes the window over which monitor.busy_frac is taken,
// wall after the blocks started.
func (p *traceProbe) busyWindow(wall time.Duration) {
	if !p.on {
		return
	}
	p.busyFrac = (stageBusy(p.rm.slo()) - p.busyMark) / wall.Seconds()
}

// openPhasesDone snapshots the SLO document over the open-loop phases.
func (p *traceProbe) openPhasesDone() {
	if !p.on {
		return
	}
	p.slo = p.rm.slo()
	p.openEnd = time.Now()
}

// phaseEnd stops the poller and collects what it saw.
func (p *traceProbe) phaseEnd() {
	if !p.on {
		return
	}
	p.rm.call(http.MethodPost, "/trace/stop", nil, &p.end)
}

func sumSeries(m map[string]float64) int64 {
	var n float64
	for _, v := range m {
		n += v
	}
	return int64(n)
}

// span is one timed interval; times are milliseconds from the first
// traced block's start.
type span struct {
	Name      string  `json:"name"`
	ID        int     `json:"id"`
	Parent    int     `json:"parent,omitempty"`
	RequestID string  `json:"request_id,omitempty"`
	Batch     int     `json:"batch"`
	Start     float64 `json:"start_ms"`
	End       float64 `json:"end_ms"`
}

type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) add(name string, parent int, req string, batch int, a, b time.Time) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, RequestID: req, Batch: batch,
		Start: ms(a.Sub(l.t0)), End: ms(b.Sub(l.t0))})
	return id
}

// merge appends another log's spans, renumbering their ids.
func (l *spanLog) merge(spans []span) {
	base := len(l.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		l.spans = append(l.spans, s)
	}
}

// selfTimes returns each span's duration minus the part of its
// interval its children cover, in milliseconds, grouped by span name.
func (l *spanLog) selfTimes() map[string][]float64 {
	children := map[int][]span{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][]float64{}
	for _, s := range l.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			a, b := max(k.Start, edge), min(k.End, s.End)
			if b > a {
				covered += b - a
				edge = b
			}
		}
		out[s.Name] = append(out[s.Name], s.End-s.Start-covered)
	}
	return out
}

func (l *spanLog) write(path string, st stamp) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"stamp": st}); err != nil {
		f.Close()
		return err
	}
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// Layer replay call names, in the order the replay makes them.
const (
	callDecode    = "cloud.decode_request"
	callPredict   = "models.predict_proba"
	callParse     = "cloud.parse_proba"
	callStats     = "core.prediction_statistics"
	callEstimate  = "core.estimate"
	callValidator = "core.validator"
	callKS        = "stats.ks"
	callObserve   = "monitor.observe"
	callCommit    = "obs.timeline_commit"
	callAppend    = "tsdb.append"
)

// layersRequest asks the system process for the layer replay.
type layersRequest struct {
	Batches []int    `json:"batches"` // distinct pool batches the run served
	Queries []readOp `json:"queries"` // the reader mix's range queries
	Origin  int64    `json:"origin"`  // span time base, unix nanoseconds
}

// layersResult is the replay's measurements.
type layersResult struct {
	Micros  map[string][]float64 `json:"micros"` // per call, per batch
	Other   []float64            `json:"other"`  // observe minus its core/stats calls
	Allocs  map[string]float64   `json:"allocs"`
	QueryMS []float64            `json:"query_ms"`
	Spans   []span               `json:"spans"`
}

// runLayers runs the layer replay in the system process: every call the
// serving path makes for one batch, timed on each distinct batch the
// run served; allocation counts of the hot calls; and the reader mix's
// range queries against the live store.
func runLayers(s *system, req layersRequest) (*layersResult, error) {
	res := &layersResult{Micros: map[string][]float64{}, Allocs: map[string]float64{}}
	log := &spanLog{t0: time.Unix(0, req.Origin)}
	mon, err := monitor.New(monitor.Config{
		Predictor: s.pred, Validator: s.val, Threshold: threshold,
		TimelineWindow: 1, TimelineCapacity: 128,
	})
	if err != nil {
		return nil, err
	}
	ts, err := obs.NewTimeSeries(obs.TimeSeriesConfig{Capacity: 128, WindowBatches: 1})
	if err != nil {
		return nil, err
	}
	var closed obs.Window
	ts.OnWindowClose(func(w obs.Window) { closed = w })
	db, err := tsdb.Open(tsdb.Config{Dir: filepath.Join(s.dir, "replay-tsdb"), Logger: quietLogger()})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	ref := s.pred.TestOutputs()
	ctx := context.Background()
	us := func(a, b time.Time) float64 { return float64(b.Sub(a)) / 1e3 }

	for n, bi := range req.Batches {
		b := &s.pool[bi]
		var t [11]time.Time
		t[0] = time.Now()
		ds, err := cloud.DecodeRequest(b.Body, s.classes)
		if err != nil {
			return nil, fmt.Errorf("replay decode: %w", err)
		}
		t[1] = time.Now()
		s.model.PredictProba(ds)
		t[2] = time.Now()
		proba, _, err := cloud.ParseProbaResponse(b.Want)
		if err != nil {
			return nil, fmt.Errorf("replay parse: %w", err)
		}
		t[3] = time.Now()
		core.PredictionStatistics(proba, 5)
		t[4] = time.Now()
		s.pred.EstimateFromProba(proba)
		t[5] = time.Now()
		s.val.ViolationFromProba(proba)
		t[6] = time.Now()
		for c := 0; c < proba.Cols; c++ {
			stats.KolmogorovSmirnov(proba.Col(c), ref.Col(c))
		}
		t[7] = time.Now()
		rec := mon.ObserveBatchProbaCtx(ctx, ds, proba, fmt.Sprintf("replay-%06d", n))
		t[8] = time.Now()
		recordTimeline(ts, rec, proba)
		t[9] = time.Now()
		db.Append(closed)
		t[10] = time.Now()

		root := log.add("replay_batch", 0, "", bi, t[0], t[10])
		for i, name := range []string{callDecode, callPredict, callParse, callStats, callEstimate,
			callValidator, callKS, callObserve, callCommit, callAppend} {
			log.add(name, root, "", bi, t[i], t[i+1])
			res.Micros[name] = append(res.Micros[name], us(t[i], t[i+1]))
		}
		res.Other = append(res.Other, us(t[7], t[8])-us(t[4], t[7]))
	}
	res.Spans = log.spans

	probas := make(map[int]*linalg.Matrix, len(req.Batches))
	for _, bi := range req.Batches {
		probas[bi] = s.pool[bi].Proba
	}
	res.Allocs[callDecode] = allocsPer(req.Batches, func(i int) { cloud.DecodeRequest(s.pool[i].Body, s.classes) })
	res.Allocs[callParse] = allocsPer(req.Batches, func(i int) { cloud.ParseProbaResponse(s.pool[i].Want) })
	res.Allocs[callValidator] = allocsPer(req.Batches, func(i int) { s.val.ViolationFromProba(probas[i]) })
	res.Allocs[callObserve] = allocsPer(req.Batches, func(i int) {
		mon.ObserveBatchProbaCtx(ctx, nil, probas[i], "")
	})

	// The reader mix's range queries, replayed in-process on the live
	// store (bounded so the replay stays short).
	deadline := time.Now().Add(3 * time.Second)
	for _, q := range req.Queries {
		if time.Now().After(deadline) {
			break
		}
		t0 := time.Now()
		if q.Kind == readSeries {
			_, err = s.db.Query(q.Series, q.From, q.To, q.Step)
		} else {
			_, _, err = s.db.Range(q.From, q.To, q.Step)
		}
		if err != nil {
			return nil, fmt.Errorf("tsdb query replay: %w", err)
		}
		res.QueryMS = append(res.QueryMS, ms(time.Since(t0)))
	}
	return res, nil
}

// recordTimeline replays one batch's series into a timeline the way the
// monitor feeds its drift timeline, closing one window.
func recordTimeline(ts *obs.TimeSeries, rec monitor.Record, proba *linalg.Matrix) {
	b := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	ts.Record("estimate", rec.Estimate)
	ts.Record("alarm", b(rec.Alarming))
	ts.Record("violation", b(rec.Violating))
	ts.Record("batch_size", float64(rec.Size))
	if rec.KS != nil {
		ts.Record("ks_max", rec.KSMax)
		for c := range rec.KS {
			ts.Record(fmt.Sprintf("ks_class_%d", c), rec.KS[c])
			ts.Record(fmt.Sprintf("p50_shift_class_%d", c), rec.P50Shift[c])
		}
	}
	for c := 0; c < proba.Cols; c++ {
		ts.RecordAll(fmt.Sprintf("proba_class_%d", c), proba.Col(c))
	}
	ts.Commit()
}

// allocsPer is the mean number of heap allocations per call of f over
// the given items. It runs after the phases, with the system idle.
func allocsPer(items []int, f func(i int)) float64 {
	if len(items) == 0 {
		return 0
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for _, i := range items {
		f(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(len(items))
}

// layerMetrics builds the traced run's spans, runs the layer replay and
// computes every per-layer metric. It prints the replay-versus-live
// comparison and writes the spans to path.
func layerMetrics(out io.Writer, d *runData, p *traceProbe, path string, st stamp) (map[string]float64, error) {
	m := map[string]float64{}
	log := &spanLog{t0: p.origin}
	var backend map[string][2]int64
	if err := p.rm.call(http.MethodGet, "/backend", nil, &backend); err != nil {
		return nil, err
	}

	// Live spans and latencies of the open-loop set.
	var self, server []float64
	var latT, latU []float64
	open := d.openLoop()
	for i := range open {
		o := &open[i]
		if !o.ok() {
			continue
		}
		be, traced := backend[o.ID]
		if !traced {
			latU = append(latU, ms(o.latency()))
			continue
		}
		latT = append(latT, ms(o.latency()))
		bStart, bEnd := time.Unix(0, be[0]), time.Unix(0, be[1])
		root := log.add("client_request", 0, o.ID, o.Batch, o.Due, o.Done)
		log.add("backend_handler", root, o.ID, o.Batch, bStart, bEnd)
		if v, ok := d.verdicts[o.ID]; ok {
			log.add("verdict", 0, o.ID, o.Batch, o.Due, v.at())
		}
		server = append(server, ms(bEnd.Sub(bStart)))
		self = append(self, ms(o.Done.Sub(o.Sent))-ms(bEnd.Sub(bStart)))
	}
	m["gateway.self_ms_p50"] = median(self)
	m["cloud.server_ms_p50"] = median(server)
	m["cloud.server_ms_p99"] = quantile(server, 0.99)
	if len(latT) > 0 && len(latU) > 0 {
		m["bench.trace_overhead_frac"] = median(latT)/median(latU) - 1
	}
	m["bench.trace_cpu_overhead_frac"] = p.cpuOverhead(open, backend)
	m["bench.gen_late_ms_p99"] = quantile(d.late, 0.99)

	reqP50, reqP99 := stageQuantiles(p.slo, gateway.StageRequest)
	m["gateway.request_ms_p50"] = reqP50 * 1e3
	m["gateway.request_ms_p99"] = reqP99 * 1e3
	liveP50, _ := stageQuantiles(p.slo, gateway.StageMonitorObserve)
	m["monitor.observe_live_us_p50"] = liveP50 * 1e6
	m["monitor.busy_frac"] = p.busyFrac
	m["gateway.shadow_depth_max"] = p.end.DepthMax
	f0, f1 := p.stats0.Fates, p.end.Stats.Fates
	m["gateway.shadow_dropped"] = f1[`{fate="dropped"}`] - f0[`{fate="dropped"}`]
	m["gateway.shadow_undecodable"] = f1[`{fate="undecodable"}`] - f0[`{fate="undecodable"}`] +
		f1[`{fate="raw_undecodable"}`] - f0[`{fate="raw_undecodable"}`]
	if reqs := p.end.Stats.Requests - p.stats0.Requests; reqs > 0 {
		m["obs.spans_per_req"] = float64(p.end.Stats.Journal-p.stats0.Journal) / float64(reqs)
	}
	m["tsdb.bytes_on_disk"] = float64(p.end.Stats.TSDBBytes)

	// Reader latencies and sizes.
	var render, federate, docBytes []float64
	var queries []readOp
	for i := range d.reads {
		o := &d.reads[i]
		if !o.ok() {
			continue
		}
		switch o.Kind {
		case readMetrics:
			render = append(render, ms(o.latency()))
		case readFederate:
			federate = append(federate, ms(o.latency()))
			docBytes = append(docBytes, float64(o.Bytes))
		case readSeries, readWindows:
			queries = append(queries, o.Read)
		}
	}
	m["obs.metrics_render_ms_p50"] = median(render)
	m["fed.federate_ms_p50"] = median(federate)
	m["fed.doc_bytes"] = median(docBytes)

	// Layer replay in the system process over the distinct batches the
	// open-loop set served.
	var lr layersResult
	req := layersRequest{Batches: servedBatches(open), Queries: queries, Origin: p.origin.UnixNano()}
	if err := p.rm.call(http.MethodPost, "/layers", req, &lr); err != nil {
		return nil, err
	}
	log.merge(lr.Spans)
	for name, metric := range map[string]string{
		callDecode: "cloud.decode_request_us_p50", callPredict: "models.predict_proba_us_p50",
		callParse: "cloud.parse_proba_us_p50", callStats: "core.prediction_statistics_us_p50",
		callEstimate: "core.estimate_us_p50", callValidator: "core.validator_us_p50",
		callKS: "stats.ks_us_p50", callObserve: "monitor.observe_us_p50",
		callCommit: "obs.timeline_commit_us_p50", callAppend: "tsdb.append_us_p50",
	} {
		m[metric] = median(lr.Micros[name])
	}
	m["monitor.observe_us_p99"] = quantile(lr.Micros[callObserve], 0.99)
	m["monitor.other_us_p50"] = median(lr.Other)
	m["cloud.decode_request_allocs"] = lr.Allocs[callDecode]
	m["cloud.parse_proba_allocs"] = lr.Allocs[callParse]
	m["core.validator_allocs"] = lr.Allocs[callValidator]
	m["monitor.observe_allocs"] = lr.Allocs[callObserve]
	m["tsdb.query_ms_p50"] = median(lr.QueryMS)
	m["tsdb.query_ms_p99"] = quantile(lr.QueryMS, 0.99)

	fmt.Fprintf(out, "replay vs live: monitor.observe_us_p50 %.1f (replay, %d batches) vs monitor_observe stage p50 %.1f (live Gateway.SLO); bench.trace_overhead_frac %.4f\n",
		m["monitor.observe_us_p50"], len(req.Batches), m["monitor.observe_live_us_p50"], m["bench.trace_overhead_frac"])
	selfT := log.selfTimes()
	fmt.Fprintln(out, "span self time (ms): name count p50 p99")
	for _, name := range sortedKeys(selfT) {
		fmt.Fprintf(out, "  %-28s %6d %10.4f %10.4f\n", name, len(selfT[name]), median(selfT[name]), quantile(selfT[name], 0.99))
	}
	if err := log.write(path, st); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	return m, nil
}

// servedBatches lists the distinct pool batches an op set served, in
// first-served order.
func servedBatches(ops []op) []int {
	seen := map[int]bool{}
	var out []int
	for i := range ops {
		if o := &ops[i]; o.ok() && !seen[o.Batch] {
			seen[o.Batch] = true
			out = append(out, o.Batch)
		}
	}
	return out
}

// cpuOverhead compares the system process's CPU per open-loop request
// between the traced and the untraced blocks of the open-loop phases.
func (p *traceProbe) cpuOverhead(open []op, backend map[string][2]int64) float64 {
	origin := p.origin.UnixNano()
	var cpu [2]float64
	var reqs [2]int
	samples := p.end.CPU
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		if b.At > p.openEnd.UnixNano() {
			break
		}
		k := 0
		if tracedAt(origin, (a.At+b.At)/2) {
			k = 1
		}
		cpu[k] += float64(b.CPU - a.CPU)
	}
	for i := range open {
		if o := &open[i]; o.ok() && !o.Sent.After(p.openEnd) {
			k := 0
			if _, ok := backend[o.ID]; ok {
				k = 1
			}
			reqs[k]++
		}
	}
	if reqs[0] == 0 || reqs[1] == 0 || cpu[0] == 0 {
		return 0
	}
	return (cpu[1]/float64(reqs[1]))/(cpu[0]/float64(reqs[0])) - 1
}
