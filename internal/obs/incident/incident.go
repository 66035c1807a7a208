// Package incident is the flight recorder of the serving stack: it
// rides the monitor's batch stream, continuously retaining a bounded,
// deterministic reservoir of recent raw serving rows plus
// predicted-class counts and the worst-scoring batches, and — when an
// alert rule fires, or on demand — freezes everything into a
// self-contained incident bundle: ranked per-column drift attribution
// against the held-out reference (the paper's REL test battery:
// two-sample KS per numeric column, chi-squared per categorical
// column, Bonferroni-corrected), a BBSEh-style predicted-class
// histogram shift, the drift-timeline excerpt around the excursion, a
// metrics-registry snapshot, recent spans, and the X-Request-IDs of
// the worst batches for log correlation. Bundles persist as JSON under
// a bounded on-disk retention ring and are served over HTTP (see
// Handler) or rendered to markdown (see Bundle.Markdown, cmd/ppm-diagnose).
//
// Determinism contract (mirrors DESIGN.md §8): the reservoir is
// Algorithm R driven by a private RNG seeded from Config.Seed through
// the same splitmix64 scramble the parallel trainer uses. The retained
// row set is therefore a pure function of (Seed, the ordered stream of
// observed batches) — independent of wall clock, scheduling, or how
// often bundles are captured — so an incident replayed from the same
// traffic yields byte-identical attribution inputs.
package incident

import (
	"fmt"
	"log/slog"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"blackboxval/internal/baselines"
	"blackboxval/internal/data"
	"blackboxval/internal/frame"
	"blackboxval/internal/labels"
	"blackboxval/internal/linalg"
	"blackboxval/internal/monitor"
	"blackboxval/internal/obs"
	"blackboxval/internal/obs/alert"
	"blackboxval/internal/stats"
)

// Config configures a Recorder.
type Config struct {
	// Reference is the held-out clean sample (e.g. the bundle's
	// persisted reference.json) that serving rows are attributed
	// against. Without it the recorder still captures bundles, just
	// with no per-column attribution.
	Reference *data.Dataset
	// RefOutputs are the model's outputs on the held-out test set; they
	// anchor the predicted-class histogram shift. Optional.
	RefOutputs *linalg.Matrix
	// Classes names the model's classes for report rendering. Optional.
	Classes []string
	// Monitor, when set, contributes its timeline excerpt, summary and
	// alarm line to captured bundles.
	Monitor *monitor.Monitor
	// Labels, when set, snapshots the label-feedback subsystem into
	// captured bundles: the labeled-accuracy credible interval next to
	// h's estimate, per-stratum posteriors, join/lag state and the
	// conformal recalibration interval.
	Labels *labels.Store
	// Dir is the on-disk retention ring ("" = in-memory only). Existing
	// bundles in Dir are loaded at construction time.
	Dir string
	// MaxBundles bounds retained bundles, in memory and on disk
	// (default 16; the oldest bundle is evicted).
	MaxBundles int
	// ReservoirRows bounds the raw-row reservoir (default 512).
	ReservoirRows int
	// Seed drives the reservoir's private RNG (default 1).
	Seed int64
	// TimelineTail is how many trailing timeline windows a bundle
	// embeds (default 32).
	TimelineTail int
	// WorstBatches is how many lowest-estimate batches a bundle lists
	// for request-id correlation (default 5).
	WorstBatches int
	// ClassWindowBatches is how many trailing batches the serving
	// predicted-class histogram aggregates (default 16).
	ClassWindowBatches int
	// Cooldown is the minimum spacing between alert-triggered captures,
	// so a flapping rule cannot storm the retention ring (default 30s;
	// manual triggers ignore it).
	Cooldown time.Duration
	// Profiler, when set, captures a bounded CPU+heap pprof pair into
	// every bundle (subject to the profiler's own cooldown; a refused
	// capture is logged, never fatal). Wire the gateway's profiler here
	// so a firing burn-rate rule freezes what the process was doing.
	Profiler *obs.Profiler
	// Serving, when set, snapshots the serving SLO observatory (per-
	// stage latency quantiles + slowest request exemplars) into every
	// bundle. The gateway supplies this from its /slo tracker.
	Serving func() *ServingSLO
	// Registry is snapshotted into bundles and receives the recorder's
	// own families via RegisterMetrics (nil = obs.Default()).
	Registry *obs.Registry
	// Tracer contributes recent spans (nil = obs.DefaultTracer()).
	Tracer *obs.Tracer
	// Logger receives capture events (nil = slog.Default()).
	Logger *slog.Logger
}

func (c *Config) defaults() {
	if c.MaxBundles <= 0 {
		c.MaxBundles = 16
	}
	if c.ReservoirRows <= 0 {
		c.ReservoirRows = 512
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.TimelineTail <= 0 {
		c.TimelineTail = 32
	}
	if c.WorstBatches <= 0 {
		c.WorstBatches = 5
	}
	if c.ClassWindowBatches <= 0 {
		c.ClassWindowBatches = 16
	}
	if c.Cooldown == 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	if c.Tracer == nil {
		c.Tracer = obs.DefaultTracer()
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
}

// Recorder is the incident flight recorder. Create with New, feed it
// through monitor.OnObserve (or ObserveBatch directly), hook alerts
// with AlertNotifier, and serve bundles with Handler. Safe for
// concurrent use.
type Recorder struct {
	cfg Config

	mu          sync.Mutex
	res         *reservoir
	batchesSeen int64
	worst       []BatchRef  // lowest-estimate batches, ascending estimate
	classRing   [][]float64 // per-batch predicted-class counts, trailing window
	lastAuto    time.Time   // last alert-triggered capture (cooldown)
	bundles     []*Bundle   // retained bundles, oldest first
	nextSeq     int         // id counter, seeded past loaded bundles
	now         func() time.Time

	capturesMetric *obs.CounterVec
	bundlesMetric  *obs.Gauge
	rowsMetric     *obs.Gauge
}

// New validates cfg, loads any bundles already retained under cfg.Dir,
// and returns a ready recorder.
func New(cfg Config) (*Recorder, error) {
	cfg.defaults()
	r := &Recorder{
		cfg: cfg,
		res: newReservoir(cfg.ReservoirRows, cfg.Seed),
		now: time.Now,
	}
	if cfg.Dir != "" {
		if err := r.loadDir(); err != nil {
			return nil, fmt.Errorf("incident: loading %s: %w", cfg.Dir, err)
		}
	}
	return r, nil
}

// RegisterMetrics registers the recorder's families on reg (nil = the
// configured registry): capture counts by trigger, retained bundles,
// and the current reservoir fill.
func (r *Recorder) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = r.cfg.Registry
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.capturesMetric = reg.CounterVec("ppm_incident_captures_total",
		"Incident bundles captured, by trigger (alert or manual).", "trigger")
	r.bundlesMetric = reg.GaugeFunc("ppm_incident_bundles",
		"Incident bundles currently retained.",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(len(r.bundles))
		})
	r.rowsMetric = reg.GaugeFunc("ppm_incident_reservoir_rows",
		"Raw serving rows currently held in the incident reservoir.",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(r.res.len())
		})
}

// ObserveBatch feeds one observed serving batch: raw rows enter the
// deterministic reservoir, the predicted-class histogram window
// advances, and the batch competes for the worst-scoring list. batch
// may be nil (row-streamed windows and ObserveProba callers carry no
// raw rows); the record still competes for the worst list when it has
// a request id.
// Its signature matches monitor.BatchObserver:
//
//	mon.OnObserve(rec.ObserveBatch)
func (r *Recorder) ObserveBatch(batch *data.Dataset, proba *linalg.Matrix, rec monitor.Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.batchesSeen++
	if batch != nil && batch.Tabular() {
		r.res.offer(batch, rec.Window)
	}
	if proba != nil && proba.Rows > 0 {
		r.classRing = append(r.classRing, baselines.PredictedClassCounts(proba))
		if len(r.classRing) > r.cfg.ClassWindowBatches {
			r.classRing = r.classRing[len(r.classRing)-r.cfg.ClassWindowBatches:]
		}
	}
	r.offerWorst(BatchRef{
		Seq:       rec.Seq,
		RequestID: rec.RequestID,
		TraceID:   rec.TraceID,
		Estimate:  rec.Estimate,
		Size:      rec.Size,
		Violating: rec.Violating,
	})
}

// offerWorst keeps the cfg.WorstBatches lowest-estimate batches,
// ascending by estimate (worst first), seq as the deterministic
// tie-break. Callers hold r.mu.
func (r *Recorder) offerWorst(ref BatchRef) {
	r.worst = append(r.worst, ref)
	sort.SliceStable(r.worst, func(i, j int) bool {
		if r.worst[i].Estimate != r.worst[j].Estimate {
			return r.worst[i].Estimate < r.worst[j].Estimate
		}
		return r.worst[i].Seq < r.worst[j].Seq
	})
	if len(r.worst) > r.cfg.WorstBatches {
		r.worst = r.worst[:r.cfg.WorstBatches]
	}
}

// AlertNotifier adapts the recorder to the alert engine: every firing
// edge captures a bundle (subject to the cooldown), resolved edges are
// ignored. Compose with a webhook via alert.Notifiers.
func (r *Recorder) AlertNotifier() alert.Notifier {
	return alert.NotifierFunc(func(ev alert.Event) {
		if ev.State != "firing" {
			return
		}
		r.mu.Lock()
		now := r.now()
		if !r.lastAuto.IsZero() && now.Sub(r.lastAuto) < r.cfg.Cooldown {
			r.mu.Unlock()
			r.cfg.Logger.Info("incident capture suppressed by cooldown", "rule", ev.Rule)
			return
		}
		r.lastAuto = now
		r.mu.Unlock()
		if _, err := r.capture("alert:"+ev.Rule, &ev); err != nil {
			r.cfg.Logger.Error("incident capture failed", "rule", ev.Rule, "err", err)
		}
	})
}

// Capture assembles, retains and persists a bundle right now. reason
// is free text recorded in the bundle ("manual" when empty). Manual
// captures bypass the alert cooldown.
func (r *Recorder) Capture(reason string) (*Bundle, error) {
	if reason == "" {
		reason = "manual"
	}
	return r.capture(reason, nil)
}

func (r *Recorder) capture(reason string, ev *alert.Event) (*Bundle, error) {
	r.mu.Lock()
	serving := r.res.dataset(r.cfg.Classes)
	rowsSeen := r.res.seen
	batches := r.batchesSeen
	worst := append([]BatchRef(nil), r.worst...)
	servingCounts := sumCounts(r.classRing)
	wmin, wmax, wok := r.res.windowSpan()
	id := fmt.Sprintf("inc-%06d", r.nextSeq)
	r.nextSeq++
	r.mu.Unlock()

	b := &Bundle{
		ID:            id,
		CapturedAt:    r.now().UTC(),
		Reason:        reason,
		ReservoirRows: 0,
		RowsSeen:      rowsSeen,
		BatchesSeen:   batches,
		Seed:          r.cfg.Seed,
		WorstBatches:  worst,
	}
	if serving != nil {
		b.ReservoirRows = serving.Len()
	}
	if wok {
		b.ReservoirWindows = &WindowSpan{Min: wmin, Max: wmax}
	}
	if r.cfg.Labels != nil {
		snap := r.cfg.Labels.Snapshot()
		b.Labels = &snap
	}
	if ev != nil {
		b.Rule = ev.Rule
		b.Severity = ev.Severity
		b.AlertValue = ev.Value
		b.AlertSeries = ev.Series
	}
	if m := r.cfg.Monitor; m != nil {
		b.Alarming = m.Alarming()
		b.AlarmLine = m.AlarmLine()
		s := m.Summarize()
		b.Summary = &s
		windows := m.Timeline().Windows()
		if len(windows) > r.cfg.TimelineTail {
			windows = windows[len(windows)-r.cfg.TimelineTail:]
		}
		b.Timeline = windows
	}
	if r.cfg.Reference != nil && serving != nil {
		rel := baselines.NewREL(r.cfg.Reference)
		b.Attribution, b.CorrectedAlpha = rel.Attribute(serving)
	}
	if r.cfg.RefOutputs != nil && r.cfg.RefOutputs.Rows > 0 && len(servingCounts) > 0 {
		b.ClassShift = classShift(r.cfg.RefOutputs, servingCounts, r.cfg.Classes)
	}
	if r.cfg.Serving != nil {
		b.Serving = r.cfg.Serving()
	}
	if r.cfg.Profiler != nil {
		profiles, err := r.cfg.Profiler.Capture()
		if err != nil {
			// Cooldown or a concurrent pprof session: the bundle is still
			// valuable without profiles.
			r.cfg.Logger.Info("incident profile capture skipped", "err", err)
		} else {
			b.Profiles = profiles
		}
	}
	var metrics strings.Builder
	if _, err := r.cfg.Registry.WriteTo(&metrics); err == nil {
		b.Metrics = metrics.String()
	}
	for _, span := range r.cfg.Tracer.Traces() {
		b.Spans = append(b.Spans, span.JSON())
	}
	b.Traces = r.collectTraces(b)

	r.mu.Lock()
	r.bundles = append(r.bundles, b)
	if len(r.bundles) > r.cfg.MaxBundles {
		r.bundles = r.bundles[len(r.bundles)-r.cfg.MaxBundles:]
	}
	counter := r.capturesMetric
	r.mu.Unlock()
	if counter != nil {
		trigger := "manual"
		if ev != nil {
			trigger = "alert"
		}
		counter.Inc(trigger)
	}
	if err := r.persist(b); err != nil {
		return b, err
	}
	r.cfg.Logger.Info("incident bundle captured",
		"id", b.ID, "reason", reason, "rows", b.ReservoirRows, "top", b.TopColumn())
	return b, nil
}

// Bundles returns the retained bundles, oldest first.
func (r *Recorder) Bundles() []*Bundle {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Bundle(nil), r.bundles...)
}

// Bundle returns one retained bundle by id.
func (r *Recorder) Bundle(id string) (*Bundle, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range r.bundles {
		if b.ID == id {
			return b, true
		}
	}
	return nil, false
}

// classShift runs the BBSEh chi-squared test between the reference
// predicted-class histogram and the serving window's.
func classShift(refOutputs *linalg.Matrix, servingCounts []float64, classes []string) *ClassShift {
	refCounts := baselines.PredictedClassCounts(refOutputs)
	if len(refCounts) != len(servingCounts) {
		return nil
	}
	res := stats.ChiSquareCounts(refCounts, servingCounts)
	return &ClassShift{
		Classes:   append([]string(nil), classes...),
		Reference: refCounts,
		Serving:   servingCounts,
		Statistic: res.Statistic,
		PValue:    res.PValue,
		Rejected:  res.Rejected(baselines.Alpha),
	}
}

func sumCounts(ring [][]float64) []float64 {
	var out []float64
	for _, counts := range ring {
		if out == nil {
			out = make([]float64, len(counts))
		}
		if len(counts) != len(out) {
			continue
		}
		for i, v := range counts {
			out[i] += v
		}
	}
	return out
}

// ---- deterministic reservoir ----------------------------------------

// reservoir holds a uniform sample of k raw rows via Algorithm R
// (Vitter 1985) over the concatenated batch stream, stored columnar so
// the sample reassembles into a dataset without copying whole batches.
// The RNG is derived from the seed by the splitmix64 scramble (same
// finalizer as internal/core's parallel trainer), making the retained
// set a pure function of (seed, ordered stream).
type reservoir struct {
	k      int
	seen   int64
	filled int
	rng    *rand.Rand

	// schema is frozen by the first tabular batch; later batches with a
	// different column layout are skipped (counted in skipped).
	names   []string
	kinds   []frame.Kind
	cols    [][]float64 // numeric storage per column (len == filled)
	strs    [][]string  // string storage per column
	wins    []int64     // served_at drift-timeline window index per slot
	classes []string
	skipped int64
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newReservoir(k int, seed int64) *reservoir {
	return &reservoir{
		k:   k,
		rng: rand.New(rand.NewSource(int64(splitmix64(uint64(seed))))),
	}
}

func (s *reservoir) len() int { return s.filled }

// offer feeds every row of a tabular batch through Algorithm R. window
// is the drift-timeline window the batch was served in; each retained
// slot remembers it, so label joins and lag metrics read served_at
// directly instead of inferring time from request-id sequence numbers.
func (s *reservoir) offer(batch *data.Dataset, window int64) {
	columns := batch.Frame.Columns()
	if len(columns) == 0 {
		s.skipped++
		return
	}
	if s.names == nil {
		s.names = make([]string, len(columns))
		s.kinds = make([]frame.Kind, len(columns))
		s.cols = make([][]float64, len(columns))
		s.strs = make([][]string, len(columns))
		for i, c := range columns {
			s.names[i] = c.Name
			s.kinds[i] = c.Kind
		}
		s.classes = append([]string(nil), batch.Classes...)
	} else if !s.matches(columns) {
		s.skipped++
		return
	}
	for row := 0; row < columns[0].Len(); row++ {
		switch {
		case s.filled < s.k:
			s.appendRow(columns, row)
			s.wins = append(s.wins, window)
			s.filled++
		default:
			// Replace a random slot with probability k/(seen+1).
			if j := s.rng.Int63n(s.seen + 1); j < int64(s.k) {
				s.setRow(columns, row, int(j))
				s.wins[j] = window
			}
		}
		s.seen++
	}
}

// windowSpan reports the oldest and newest served_at window indices of
// the retained rows (ok=false while the reservoir is empty).
func (s *reservoir) windowSpan() (min, max int64, ok bool) {
	if len(s.wins) == 0 {
		return 0, 0, false
	}
	min, max = s.wins[0], s.wins[0]
	for _, w := range s.wins[1:] {
		if w < min {
			min = w
		}
		if w > max {
			max = w
		}
	}
	return min, max, true
}

func (s *reservoir) matches(columns []*frame.Column) bool {
	if len(columns) != len(s.names) || len(columns) == 0 {
		return false
	}
	for i, c := range columns {
		if c.Name != s.names[i] || c.Kind != s.kinds[i] {
			return false
		}
	}
	return true
}

func (s *reservoir) appendRow(columns []*frame.Column, row int) {
	for i, c := range columns {
		if c.Kind == frame.Numeric {
			s.cols[i] = append(s.cols[i], c.Num[row])
		} else {
			s.strs[i] = append(s.strs[i], c.Str[row])
		}
	}
}

func (s *reservoir) setRow(columns []*frame.Column, row, slot int) {
	for i, c := range columns {
		if c.Kind == frame.Numeric {
			s.cols[i][slot] = c.Num[row]
		} else {
			s.strs[i][slot] = c.Str[row]
		}
	}
}

// dataset reassembles the current sample into an unlabeled dataset
// (nil while empty). classes overrides the batch-derived class list
// when set.
func (s *reservoir) dataset(classes []string) *data.Dataset {
	n := s.len()
	if n == 0 {
		return nil
	}
	f := frame.New()
	for i, name := range s.names {
		switch s.kinds[i] {
		case frame.Numeric:
			f.AddNumeric(name, append([]float64(nil), s.cols[i]...))
		case frame.Categorical:
			f.AddCategorical(name, append([]string(nil), s.strs[i]...))
		default:
			f.AddText(name, append([]string(nil), s.strs[i]...))
		}
	}
	if classes == nil {
		classes = s.classes
	}
	return &data.Dataset{
		Frame:   f,
		Labels:  make([]int, n),
		Classes: append([]string(nil), classes...),
	}
}

// maxBundleTraces bounds the embedded traces per bundle: the worst
// batches and slowest exemplars overlap heavily in practice, and a
// bundle must stay small enough to POST to a webhook.
const maxBundleTraces = 6

// collectTraces resolves the bundle's worst-estimate batches and
// slowest request exemplars to their sampled traces and embeds this
// process's span fragments (trace ring + journal) for each. Unsampled
// or evicted traces simply do not appear — head sampling already
// decided they were not worth keeping.
func (r *Recorder) collectTraces(b *Bundle) []TraceRef {
	type candidate struct {
		traceID, requestID, why string
	}
	var cands []candidate
	for _, ref := range b.WorstBatches {
		if ref.TraceID != "" {
			cands = append(cands, candidate{ref.TraceID, ref.RequestID, "worst_estimate"})
		}
	}
	// Exemplars carry request ids only; resolve them through the span
	// ring, whose request spans carry both the request_id attribute and
	// the trace id.
	var exemplarIDs []string
	if b.Serving != nil {
		for _, ex := range b.Serving.Exemplars {
			if ex.RequestID != "" {
				exemplarIDs = append(exemplarIDs, ex.RequestID)
			}
		}
	}
	if len(exemplarIDs) > 0 {
		byRequest := map[string]string{}
		for _, root := range r.cfg.Tracer.Traces() {
			js := root.JSON()
			if js.TraceID == "" {
				continue
			}
			if id, ok := js.Attrs["request_id"]; ok {
				byRequest[id] = js.TraceID
			}
		}
		for _, id := range exemplarIDs {
			if tid, ok := byRequest[id]; ok {
				cands = append(cands, candidate{tid, id, "slowest_exemplar"})
			}
		}
	}

	seen := map[string]bool{}
	var out []TraceRef
	for _, c := range cands {
		if seen[c.traceID] || len(out) >= maxBundleTraces {
			continue
		}
		seen[c.traceID] = true
		spans := r.cfg.Tracer.FindTrace(c.traceID)
		if j := r.cfg.Tracer.Journal(); j != nil {
			// The ring and the journal overlap for recent traces; dedup
			// by span id, preferring the ring's (fresher) copy.
			have := map[string]bool{}
			for _, s := range spans {
				if s.SpanID != "" {
					have[s.SpanID] = true
				}
			}
			for _, s := range j.Find(c.traceID) {
				if s.SpanID == "" || !have[s.SpanID] {
					spans = append(spans, s)
				}
			}
		}
		if len(spans) == 0 {
			continue
		}
		out = append(out, TraceRef{TraceID: c.traceID, RequestID: c.requestID, Why: c.why, Spans: spans})
	}
	return out
}
