// Package labels closes the feedback loop the paper deliberately
// leaves open: h estimates model performance *without* labels at
// serving time, but in real deployments ground truth arrives late and
// at a cost. The Store rides the monitor's batch stream (OnObserve),
// remembers what was served per X-Request-ID, ingests delayed true
// labels over POST /labels (batched JSON, idempotent per request id
// and row, with a bounded pending-join buffer and a configurable max
// lag), and keeps three derived layers:
//
//   - assessment: Beta-Bernoulli accuracy posteriors per served
//     window, per predicted class and per stratum, surfaced as
//     first-class timeline series (labeled_acc_mean/lo95/hi95,
//     labeled_coverage, label_lag) next to h's unlabeled estimate;
//   - active sampling: a budgeted Thompson-sampling policy over the
//     per-stratum posteriors (strata = predicted class × alarm state)
//     that ranks unlabeled served rows into a GET /labels/requests
//     worklist, with a uniform baseline for comparison;
//   - recalibration: an online conformal residual tracker that wraps
//     h's per-batch estimate into a prediction interval and exports
//     the drift of |h − labeled accuracy| (h_abs_gap) for alert rules.
//
// Determinism contract (DESIGN.md §8): all posterior state is exact
// conjugate arithmetic over the ordered join stream, and the only
// randomness — Thompson draws and the uniform baseline — flows from a
// private splitmix64-scrambled RNG seeded by Config.Seed, so worklists
// are a pure function of (seed, ordered stream, call sequence).
//
// Fleet invariant: the per-row labeled_correct series is recorded as
// raw 0/1 samples, so its window Count/Sum merge shard-invariantly via
// stats.ExactSum and the federation aggregator can derive the fleet
// posterior from merged counts (see internal/fed).
package labels

import (
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"sync"

	"blackboxval/internal/data"
	"blackboxval/internal/linalg"
	"blackboxval/internal/monitor"
	"blackboxval/internal/obs"
)

// Timeline series names fed by the Store. Stable API: dashboards,
// alert rules and the federation aggregator address them.
const (
	SeriesAccMean  = "labeled_acc_mean"
	SeriesAccLo    = "labeled_acc_lo95"
	SeriesAccHi    = "labeled_acc_hi95"
	SeriesCorrect  = "labeled_correct" // per-row 0/1, the shard-mergeable primitive
	SeriesCoverage = "labeled_coverage"
	SeriesLag      = "label_lag"
	SeriesAbsGap   = "h_abs_gap"
	SeriesHLo      = "h_interval_lo"
	SeriesHHi      = "h_interval_hi"
	SeriesHCovered = "h_covered"
)

// Config configures a Store.
type Config struct {
	// Timeline is the drift timeline the store stamps served batches
	// against and feeds its series into — normally Monitor.Timeline().
	// Required.
	Timeline *obs.TimeSeries
	// MaxPending bounds the served batches retained while waiting for
	// labels (default 512; the oldest unlabeled batch is evicted).
	MaxPending int
	// MaxPendingLabels bounds label posts buffered because their batch
	// has not been observed yet (default 256).
	MaxPendingLabels int
	// MaxLagWindows is the join horizon: labels for a batch served more
	// than this many timeline windows ago are dropped as late, and
	// served batches older than the horizon stop waiting (default 64).
	MaxLagWindows int64
	// Level is the credible/prediction interval level (default 0.95).
	Level float64
	// PriorA/PriorB are the Beta prior pseudo-counts (default 1, 1 — the
	// uniform prior).
	PriorA, PriorB float64
	// ResidualWindow bounds the conformal residual ring (default 128).
	ResidualWindow int
	// MinResiduals is the conformal warmup: intervals are vacuous [0,1]
	// until this many residuals have been observed (default 10).
	MinResiduals int
	// Seed drives the sampling policies' private RNG (default 1).
	Seed int64
	// Logger receives join anomalies (nil = slog.Default()).
	Logger *slog.Logger
}

func (c *Config) defaults() {
	if c.MaxPending <= 0 {
		c.MaxPending = 512
	}
	if c.MaxPendingLabels <= 0 {
		c.MaxPendingLabels = 256
	}
	if c.MaxLagWindows <= 0 {
		c.MaxLagWindows = 64
	}
	if c.Level == 0 {
		c.Level = 0.95
	}
	if c.PriorA <= 0 {
		c.PriorA = 1
	}
	if c.PriorB <= 0 {
		c.PriorB = 1
	}
	if c.ResidualWindow <= 0 {
		c.ResidualWindow = 128
	}
	if c.MinResiduals <= 0 {
		c.MinResiduals = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
}

// servedBatch is what the store remembers about one observed batch
// while its labels may still arrive.
type servedBatch struct {
	id       string
	seq      int
	window   int64 // served_at drift-timeline window index
	estimate float64
	alarming bool
	pred     []int  // predicted class per row (argmax of proba)
	labeled  []bool // per-row join state (idempotency)
	nLabeled int
}

// labelPost is a label record buffered before its batch was observed.
type labelPost struct {
	id      string
	rows    []int
	labels  []int
	arrived int64 // open window index at arrival, for lag-based expiry
}

// Counters are the join bookkeeping totals, exposed in Snapshot and as
// metrics.
type Counters struct {
	// Posted counts label records received (post-decode).
	Posted int64 `json:"posted"`
	// JoinedBatches counts batches that received >= 1 newly labeled row.
	JoinedBatches int64 `json:"joined_batches"`
	// JoinedRows counts newly labeled rows.
	JoinedRows int64 `json:"joined_rows"`
	// DuplicateRows counts rows re-posted for an already labeled
	// (request id, row) — the idempotent no-op path.
	DuplicateRows int64 `json:"duplicate_rows"`
	// Buffered counts records parked in the pending-join buffer because
	// their request id had not been observed yet.
	Buffered int64 `json:"buffered"`
	// DroppedLate counts records for batches served beyond the lag
	// horizon.
	DroppedLate int64 `json:"dropped_late"`
	// DroppedPending counts buffered records expired or displaced
	// without ever matching a batch (unknown request ids end here).
	DroppedPending int64 `json:"dropped_pending"`
	// EvictedBatches counts served batches that aged out (or were
	// displaced) with unlabeled rows remaining.
	EvictedBatches int64 `json:"evicted_batches"`
	// InvalidRows counts rows rejected by validation (index out of
	// range, negative label, length mismatch).
	InvalidRows int64 `json:"invalid_rows"`
}

// Store is the label-feedback subsystem. Create with New, register on
// the monitor with mon.OnObserve(store.ObserveBatch), mount Handler on
// the serving mux. Safe for concurrent use.
type Store struct {
	cfg Config

	mu     sync.Mutex
	served []*servedBatch // FIFO, oldest first
	byID   map[string]*servedBatch
	early  map[string]*labelPost // pending-join buffer
	order  []string              // early insertion order

	overall  *Posterior
	winPost  map[int64]*Posterior
	perClass map[int]*Posterior
	strata   map[stratumKey]*Posterior
	recal    *conformal
	rng      *rand.Rand

	rowsServed  int64
	rowsLabeled int64
	rowsCorrect int64
	counters    Counters
	lastLag     int64
	lagSum      float64
	lagJoins    int64

	postedMetric *obs.Counter
	joinedMetric *obs.Counter
	dupMetric    *obs.Counter
	dropMetric   *obs.CounterVec
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// New validates the configuration and returns a ready store.
func New(cfg Config) (*Store, error) {
	cfg.defaults()
	if cfg.Timeline == nil {
		return nil, fmt.Errorf("labels: a timeline is required")
	}
	if cfg.Level <= 0 || cfg.Level >= 1 {
		return nil, fmt.Errorf("labels: interval level %v out of (0,1)", cfg.Level)
	}
	return &Store{
		cfg:      cfg,
		byID:     map[string]*servedBatch{},
		early:    map[string]*labelPost{},
		overall:  newPosterior(cfg.PriorA, cfg.PriorB),
		winPost:  map[int64]*Posterior{},
		perClass: map[int]*Posterior{},
		strata:   map[stratumKey]*Posterior{},
		recal:    newConformal(1-cfg.Level, cfg.ResidualWindow, cfg.MinResiduals),
		rng:      rand.New(rand.NewSource(int64(splitmix64(uint64(cfg.Seed))))),
	}, nil
}

// RegisterMetrics registers the store's families on reg (nil =
// obs.Default()).
func (s *Store) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.postedMetric = reg.Counter("ppm_labels_posted_total",
		"Label records received on POST /labels.")
	s.joinedMetric = reg.Counter("ppm_labels_joined_rows_total",
		"Served rows joined with a true label.")
	s.dupMetric = reg.Counter("ppm_labels_duplicate_rows_total",
		"Label rows ignored because the (request id, row) was already labeled.")
	s.dropMetric = reg.CounterVec("ppm_labels_dropped_total",
		"Label records or rows dropped, by reason (late, pending, evicted, invalid).", "reason")
	reg.GaugeFunc("ppm_labels_pending_batches",
		"Served batches retained with unlabeled rows.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.served))
		})
	reg.GaugeFunc("ppm_labels_pending_posts",
		"Label posts buffered while waiting for their batch to be observed.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.early))
		})
	reg.GaugeFunc("ppm_labels_coverage",
		"Fraction of served rows that have received a true label.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.coverageLocked()
		})
	reg.GaugeFunc("ppm_labeled_accuracy",
		"Posterior mean accuracy over all labeled rows.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.overall.Mean()
		})
}

func (s *Store) coverageLocked() float64 {
	if s.rowsServed == 0 {
		return 0
	}
	return float64(s.rowsLabeled) / float64(s.rowsServed)
}

// ObserveBatch feeds one observed serving batch into the join state.
// Its signature matches monitor.BatchObserver:
//
//	mon.OnObserve(store.ObserveBatch)
//
// Batches without a request id (row-streamed windows, file-watch
// batches) cannot be joined and are counted only toward coverage's
// denominator. Any label post already buffered for the request id
// joins immediately.
func (s *Store) ObserveBatch(_ *data.Dataset, proba *linalg.Matrix, rec monitor.Record) {
	if proba == nil || proba.Rows == 0 {
		return
	}
	pred := make([]int, proba.Rows)
	for i := range pred {
		pred[i] = argmax(proba.Row(i))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rowsServed += int64(proba.Rows)
	var sb *servedBatch
	if rec.RequestID != "" {
		if _, dup := s.byID[rec.RequestID]; !dup {
			sb = &servedBatch{
				id:       rec.RequestID,
				seq:      rec.Seq,
				window:   rec.Window,
				estimate: rec.Estimate,
				alarming: rec.Alarming,
				pred:     pred,
				labeled:  make([]bool, proba.Rows),
			}
			s.served = append(s.served, sb)
			s.byID[sb.id] = sb
		}
		// A replayed request id cannot be joined unambiguously: only the
		// first observation enters the join state.
	}
	// The batch stream is the subsystem's clock: every observation
	// advances the retention horizon, joinable or not.
	s.expireLocked(rec.Window)
	if sb == nil {
		return
	}
	if post, ok := s.early[sb.id]; ok {
		delete(s.early, sb.id)
		s.removeOrder(sb.id)
		s.joinLocked(sb, post.rows, post.labels)
	}
}

// expireLocked enforces the retention bounds: served batches beyond
// the lag horizon or the MaxPending cap stop waiting for labels, and
// buffered posts past the horizon are dropped (unknown ids die here).
func (s *Store) expireLocked(openWindow int64) {
	for len(s.served) > 0 {
		sb := s.served[0]
		overCap := len(s.served) > s.cfg.MaxPending
		tooOld := openWindow-sb.window > s.cfg.MaxLagWindows
		if !overCap && !tooOld {
			break
		}
		if sb.nLabeled < len(sb.pred) {
			s.counters.EvictedBatches++
		}
		delete(s.byID, sb.id)
		s.served = s.served[1:]
	}
	for len(s.order) > 0 {
		id := s.order[0]
		post := s.early[id]
		overCap := len(s.order) > s.cfg.MaxPendingLabels
		tooOld := post != nil && openWindow-post.arrived > s.cfg.MaxLagWindows
		if !overCap && !tooOld {
			break
		}
		delete(s.early, id)
		s.order = s.order[1:]
		s.counters.DroppedPending++
		s.drop("pending")
	}
}

func (s *Store) removeOrder(id string) {
	for i, v := range s.order {
		if v == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			return
		}
	}
}

func (s *Store) drop(reason string) {
	if s.dropMetric != nil {
		s.dropMetric.Inc(reason)
	}
}

// Record is one wire-format label record: the true labels for (a
// subset of) the rows of one served batch, keyed by the X-Request-ID
// the gateway pinned on the serving response. With Rows omitted the
// labels cover the whole batch in row order.
type Record struct {
	RequestID string `json:"request_id"`
	Rows      []int  `json:"rows,omitempty"`
	Labels    []int  `json:"labels"`
}

// IngestResult summarizes one Ingest call — the POST /labels response
// body.
type IngestResult struct {
	Posted      int64 `json:"posted"`
	JoinedRows  int64 `json:"joined_rows"`
	Duplicates  int64 `json:"duplicates"`
	Buffered    int64 `json:"buffered"`
	DroppedLate int64 `json:"dropped_late"`
	Invalid     int64 `json:"invalid"`
}

// Ingest applies a batch of label records: idempotent per (request id,
// row), first write wins. Records for batches not yet observed are
// buffered; records beyond the lag horizon are dropped and counted.
func (s *Store) Ingest(records []Record) IngestResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	before := s.counters
	open := s.cfg.Timeline.OpenIndex()
	for _, rec := range records {
		s.counters.Posted++
		if s.postedMetric != nil {
			s.postedMetric.Inc()
		}
		if rec.RequestID == "" || len(rec.Labels) == 0 ||
			(rec.Rows != nil && len(rec.Rows) != len(rec.Labels)) {
			s.counters.InvalidRows += int64(len(rec.Labels))
			s.drop("invalid")
			continue
		}
		sb, ok := s.byID[rec.RequestID]
		if !ok {
			s.bufferLocked(rec, open)
			continue
		}
		if open-sb.window > s.cfg.MaxLagWindows {
			s.counters.DroppedLate += int64(len(rec.Labels))
			s.drop("late")
			continue
		}
		s.joinLocked(sb, rec.Rows, rec.Labels)
	}
	d := Counters{
		Posted:        s.counters.Posted - before.Posted,
		JoinedRows:    s.counters.JoinedRows - before.JoinedRows,
		DuplicateRows: s.counters.DuplicateRows - before.DuplicateRows,
		Buffered:      s.counters.Buffered - before.Buffered,
		DroppedLate:   s.counters.DroppedLate - before.DroppedLate,
		InvalidRows:   s.counters.InvalidRows - before.InvalidRows,
	}
	return IngestResult{
		Posted: d.Posted, JoinedRows: d.JoinedRows, Duplicates: d.DuplicateRows,
		Buffered: d.Buffered, DroppedLate: d.DroppedLate, Invalid: d.InvalidRows,
	}
}

// bufferLocked parks a record whose batch has not been observed yet in
// the bounded pending-join buffer. A re-post for an already buffered
// id replaces the buffered labels (still unjoined, so no double count).
func (s *Store) bufferLocked(rec Record, open int64) {
	if _, ok := s.early[rec.RequestID]; !ok {
		s.order = append(s.order, rec.RequestID)
	}
	s.early[rec.RequestID] = &labelPost{
		id:   rec.RequestID,
		rows: append([]int(nil), rec.Rows...), labels: append([]int(nil), rec.Labels...),
		arrived: open,
	}
	s.counters.Buffered++
	if len(s.order) > s.cfg.MaxPendingLabels {
		victim := s.order[0]
		s.order = s.order[1:]
		delete(s.early, victim)
		s.counters.DroppedPending++
		s.drop("pending")
	}
}

// joinLocked applies labels to a served batch and feeds the
// assessment, recalibration and timeline layers. rows == nil means
// "the whole batch in order".
func (s *Store) joinLocked(sb *servedBatch, rows, labelVals []int) {
	newCorrect := make([]float64, 0, len(labelVals))
	correct := 0
	for k, label := range labelVals {
		row := k
		if rows != nil {
			row = rows[k]
		}
		if row < 0 || row >= len(sb.pred) || label < 0 {
			s.counters.InvalidRows++
			s.drop("invalid")
			continue
		}
		if sb.labeled[row] {
			s.counters.DuplicateRows++
			if s.dupMetric != nil {
				s.dupMetric.Inc()
			}
			continue
		}
		sb.labeled[row] = true
		sb.nLabeled++
		ok := sb.pred[row] == label
		if ok {
			correct++
		}
		newCorrect = append(newCorrect, boolSample(ok))
		s.observeLocked(sb, row, ok)
	}
	if len(newCorrect) == 0 {
		return
	}
	s.counters.JoinedBatches++
	s.counters.JoinedRows += int64(len(newCorrect))
	if s.joinedMetric != nil {
		s.joinedMetric.Add(float64(len(newCorrect)))
	}
	s.feedTimelineLocked(sb, newCorrect, correct)
}

// observeLocked applies one exact conjugate update across the
// posterior layers.
func (s *Store) observeLocked(sb *servedBatch, row int, ok bool) {
	s.rowsLabeled++
	if ok {
		s.rowsCorrect++
	}
	s.overall.Observe(ok)
	w := s.winPost[sb.window]
	if w == nil {
		w = newPosterior(s.cfg.PriorA, s.cfg.PriorB)
		s.winPost[sb.window] = w
		// Bound the per-window map to the retention horizon: windows
		// older than twice the lag can no longer receive joins.
		for idx := range s.winPost {
			if sb.window-idx > 2*s.cfg.MaxLagWindows {
				delete(s.winPost, idx)
			}
		}
	}
	w.Observe(ok)
	class := sb.pred[row]
	c := s.perClass[class]
	if c == nil {
		c = newPosterior(s.cfg.PriorA, s.cfg.PriorB)
		s.perClass[class] = c
	}
	c.Observe(ok)
	key := stratumKey{class: class, alarming: sb.alarming}
	st := s.strata[key]
	if st == nil {
		st = newPosterior(s.cfg.PriorA, s.cfg.PriorB)
		s.strata[key] = st
	}
	st.Observe(ok)
}

// feedTimelineLocked surfaces one join event as timeline series. The
// samples land in the currently open window (labels are late by
// design; label_lag says how late).
func (s *Store) feedTimelineLocked(sb *servedBatch, newCorrect []float64, correct int) {
	tl := s.cfg.Timeline
	open := tl.OpenIndex()
	lag := open - sb.window
	if lag < 0 {
		lag = 0
	}
	s.lastLag = lag
	s.lagSum += float64(lag)
	s.lagJoins++

	w := s.winPost[sb.window]
	lo, hi := w.Interval(s.cfg.Level)
	tl.Record(SeriesAccMean, w.Mean())
	tl.Record(SeriesAccLo, lo)
	tl.Record(SeriesAccHi, hi)
	tl.RecordAll(SeriesCorrect, newCorrect)
	tl.Record(SeriesCoverage, s.coverageLocked())
	tl.Record(SeriesLag, float64(lag))

	// Recalibration: score the interval the tracker would have emitted
	// for this batch's estimate *before* absorbing its residual, then
	// absorb it. batchAcc is the labeled accuracy of the newly joined
	// rows — the quantity h estimated for this batch.
	batchAcc := float64(correct) / float64(len(newCorrect))
	cLo, cHi, ok := s.recal.interval(sb.estimate)
	if ok {
		s.recal.score(cLo, cHi, batchAcc)
	}
	s.recal.lastLo, s.recal.lastHi = cLo, cHi
	tl.Record(SeriesHLo, cLo)
	tl.Record(SeriesHHi, cHi)
	if ok {
		tl.Record(SeriesHCovered, boolSample(batchAcc >= cLo && batchAcc <= cHi))
	}
	tl.Record(SeriesAbsGap, math.Abs(sb.estimate-w.Mean()))
	s.recal.push(batchAcc - sb.estimate)
}

// Snapshot is the JSON-facing state of the subsystem: /labels/status,
// incident bundles and ppm-diagnose all render it.
type Snapshot struct {
	RowsServed  int64   `json:"rows_served"`
	RowsLabeled int64   `json:"rows_labeled"`
	RowsCorrect int64   `json:"rows_correct"`
	Coverage    float64 `json:"coverage"`
	Level       float64 `json:"level"`

	Overall  PosteriorSummary `json:"overall"`
	Strata   []StratumSummary `json:"strata,omitempty"`
	Counters Counters         `json:"counters"`

	PendingBatches int `json:"pending_batches"`
	PendingPosts   int `json:"pending_posts"`

	LastLagWindows int64   `json:"last_lag_windows"`
	MeanLagWindows float64 `json:"mean_lag_windows"`

	Conformal ConformalSummary `json:"conformal"`
}

// Snapshot returns a consistent copy of the subsystem state.
func (s *Store) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{
		RowsServed: s.rowsServed, RowsLabeled: s.rowsLabeled, RowsCorrect: s.rowsCorrect,
		Coverage: s.coverageLocked(), Level: s.cfg.Level,
		Overall: s.overall.summary(s.cfg.Level), Counters: s.counters,
		PendingBatches: len(s.served), PendingPosts: len(s.early),
		LastLagWindows: s.lastLag, Conformal: s.recal.summary(),
	}
	if s.lagJoins > 0 {
		snap.MeanLagWindows = s.lagSum / float64(s.lagJoins)
	}
	for _, key := range sortedStrata(s.strata) {
		snap.Strata = append(snap.Strata, StratumSummary{
			Class: key.class, Alarming: key.alarming,
			PosteriorSummary: s.strata[key].summary(s.cfg.Level),
		})
	}
	return snap
}

// WindowPosterior returns the accuracy posterior of one served window
// (ok=false when no labels have joined for it, or it aged out).
func (s *Store) WindowPosterior(window int64) (PosteriorSummary, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.winPost[window]
	if !ok {
		return PosteriorSummary{}, false
	}
	return p.summary(s.cfg.Level), true
}

func argmax(row []float64) int {
	best := 0
	for i, v := range row {
		if v > row[best] {
			best = i
		}
	}
	return best
}

func boolSample(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
