package main

// Set-up: train the black box, h and the validator, write them as a
// bundle, and compose the serving stack in-process the way a
// bundle-backed ppm-gateway deploys it — cloud.Server as the backend,
// gateway.New with a monitor holding the predictor and the validator,
// the cloud.DecodeRequest raw decoder, and the label, incident, tracing
// and tsdb wiring on scratch directories. Alert rules, burn-rate alerts
// and profile capture stay off.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"blackboxval/internal/cli"
	"blackboxval/internal/cloud"
	"blackboxval/internal/core"
	"blackboxval/internal/data"
	"blackboxval/internal/frame"
	"blackboxval/internal/gateway"
	"blackboxval/internal/linalg"
	"blackboxval/internal/models"
	"blackboxval/internal/monitor"
	"blackboxval/internal/obs"
	"blackboxval/internal/obs/incident"
	"blackboxval/internal/obs/tsdb"
	"blackboxval/internal/persist"
)

// servedBatch is a pool batch with the backend's answer for it.
type servedBatch struct {
	poolBatch
	Want  []byte         // the backend's response body, byte for byte
	Proba *linalg.Matrix // the model outputs in Want
	Acc   float64        // true batch accuracy from the generator labels
}

// verdict is one committed monitor record seen by the OnObserve hook.
type verdict struct {
	AtNS      int64   `json:"at_ns"` // unix nanoseconds, comparable across processes
	Estimate  float64 `json:"estimate"`
	Violating bool    `json:"violating"`
}

func (v verdict) at() time.Time { return time.Unix(0, v.AtNS) }

// verdictLog collects the monitor's committed records by request id.
type verdictLog struct {
	mu    sync.Mutex
	byID  map[string]verdict
	count int64 // every committed record, prefill and warm-up included
}

func (v *verdictLog) observe(_ *data.Dataset, _ *linalg.Matrix, rec monitor.Record) {
	at := time.Now().UnixNano()
	v.mu.Lock()
	v.byID[rec.RequestID] = verdict{AtNS: at, Estimate: rec.Estimate, Violating: rec.Violating}
	v.count++
	v.mu.Unlock()
}

// verdicts is a snapshot of the verdict log.
type verdicts struct {
	Committed int64              `json:"committed"`
	ByID      map[string]verdict `json:"by_id"`
}

func (v *verdictLog) snapshot() verdicts {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := verdicts{Committed: v.count, ByID: make(map[string]verdict, len(v.byID))}
	for id, r := range v.byID {
		out.ByID[id] = r
	}
	return out
}

// backendTimer is the traced run's middleware around the backend
// handler: it records each request's handler interval by request id,
// in the traced blocks of the run — the odd blockLen-long blocks
// counted from origin (unix nanoseconds; 0 = not started).
type backendTimer struct {
	next   http.Handler
	origin atomic.Int64
	mu     sync.Mutex
	recs   map[string][2]int64
}

// tracedAt reports whether the unix-nanosecond time t falls in a traced
// block.
func tracedAt(origin, t int64) bool {
	return origin != 0 && t >= origin && (t-origin)/int64(blockLen)%2 == 1
}

func (b *backendTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now().UnixNano()
	if !tracedAt(b.origin.Load(), start) {
		b.next.ServeHTTP(w, r)
		return
	}
	b.next.ServeHTTP(w, r)
	end := time.Now().UnixNano()
	b.mu.Lock()
	b.recs[r.Header.Get(obs.RequestIDHeader)] = [2]int64{start, end}
	b.mu.Unlock()
}

func (b *backendTimer) snapshot() map[string][2]int64 {
	out := map[string][2]int64{}
	if b == nil {
		return out
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for id, r := range b.recs {
		out[id] = r
	}
	return out
}

// system is one composed serving stack plus the artifacts it was built
// from.
type system struct {
	dir       string
	model     data.Model
	pred      *core.Predictor
	val       *core.Validator
	classes   []string
	testScore float64
	pool      []servedBatch

	backend *httptest.Server
	timer   *backendTimer // nil unless traced
	gw      *gateway.Gateway
	front   *httptest.Server
	mux     *http.ServeMux
	db      *tsdb.DB
	verdict *verdictLog
	closers []func()
}

// quietLogger drops informational lines but keeps warnings on stderr.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
}

// splitData generates the workload's fixed dataset and splits it the
// way the paper's experiments do: classes balanced, a source partition
// (split again into model-training and held-out test data) and a
// disjoint serving partition that request batches are drawn from.
func splitData(w *workload) (train, test, serving *data.Dataset, err error) {
	ds, err := generateDataset(w.Dataset, w.Train.DataRows, trainSeed)
	if err != nil {
		return nil, nil, nil, err
	}
	rng := rand.New(rand.NewSource(trainSeed))
	source, serving := ds.Balance(rng).Split(0.7, rng)
	train, test = source.Split(0.6, rng)
	return train, test, serving, nil
}

// trainArtifacts trains the black box, h and the validator on the
// workload's fixed training data.
func trainArtifacts(w *workload) (data.Model, *core.Predictor, *core.Validator, *data.Dataset, error) {
	train, test, _, err := splitData(w)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	var clf models.Classifier
	switch w.Model {
	case "lr":
		clf = &models.SGDClassifier{Seed: trainSeed}
	case "conv":
		clf = &models.CNNClassifier{Seed: trainSeed, Epochs: w.Train.Epochs}
	default:
		return nil, nil, nil, nil, fmt.Errorf("unknown model %q", w.Model)
	}
	model, err := models.TrainPipeline(train, clf, 256)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("training black box: %w", err)
	}
	gens := generatorsFor(w.Dataset)
	pred, err := core.TrainPredictor(model, test, core.PredictorConfig{
		Generators: gens, Repetitions: w.Train.Reps, ForestSizes: w.Train.Forest,
		Folds: w.Train.Folds, Seed: trainSeed,
	})
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("training h: %w", err)
	}
	val, err := core.TrainValidator(model, test, core.ValidatorConfig{
		Generators: gens, Threshold: threshold, Batches: w.Train.ValBatches,
		PredictorRepetitions: w.Train.ValPredReps, Seed: trainSeed,
	})
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("training validator: %w", err)
	}
	return model, pred, val, test, nil
}

// writeBundle persists the artifacts in the layout ppm-validate train
// writes, so the gateway side loads them exactly as in deployment.
func writeBundle(dir string, w *workload, ds *data.Dataset, pred *core.Predictor, val *core.Validator) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	manifest := cli.Manifest{
		Dataset: w.Dataset, Model: w.Model, Threshold: threshold,
		TestScore: pred.TestScore(), Classes: ds.Classes,
	}
	if ds.Tabular() {
		for _, c := range ds.Frame.Columns() {
			manifest.Columns = append(manifest.Columns, frame.ColumnSpec{Name: c.Name, Kind: c.Kind})
		}
	}
	raw, err := json.MarshalIndent(manifest, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, cli.ManifestFile), raw, 0o644); err != nil {
		return err
	}
	if err := persist.SavePredictor(filepath.Join(dir, cli.PredictorFile), pred); err != nil {
		return err
	}
	if err := persist.SaveValidator(filepath.Join(dir, cli.ValidatorFile), val); err != nil {
		return err
	}
	reference := ds
	if reference.Len() > w.Train.ReferenceRows {
		reference = reference.Sample(w.Train.ReferenceRows, rand.New(rand.NewSource(trainSeed)))
	}
	return persist.SaveDataset(filepath.Join(dir, cli.ReferenceFile), reference)
}

// scorePool asks the backend handler for every pool batch's answer and
// derives each batch's true accuracy from the generator labels.
func scorePool(handler http.Handler, pool []poolBatch) ([]servedBatch, error) {
	out := make([]servedBatch, len(pool))
	for i, b := range pool {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/predict_proba", bytes.NewReader(b.Body))
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("scoring pool batch %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		want := rec.Body.Bytes()
		proba, _, err := cloud.ParseProbaResponse(want)
		if err != nil {
			return nil, fmt.Errorf("scoring pool batch %d: %w", i, err)
		}
		if proba.Rows != len(b.Labels) {
			return nil, fmt.Errorf("pool batch %d: %d outputs for %d labels", i, proba.Rows, len(b.Labels))
		}
		out[i] = servedBatch{poolBatch: b, Want: want, Proba: proba, Acc: models.Accuracy(proba, b.Labels)}
	}
	return out, nil
}

// setup builds one complete system under dir. With traced set, the
// backend handler is wrapped in the timing middleware. scored carries
// the backend's answers for the request pool; when it is nil, setup
// computes them with the freshly trained model and reports the time
// that took as oracle, which is the benchmark's own work, not set-up.
func setup(w *workload, seed int64, dir string, traced bool, pool []poolBatch, scored []servedBatch) (_ *system, oracle time.Duration, err error) {
	s := &system{dir: dir, verdict: &verdictLog{byID: map[string]verdict{}}}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	model, pred, val, test, err := trainArtifacts(w)
	if err != nil {
		return nil, 0, err
	}
	s.model = model
	bundleDir := filepath.Join(dir, "bundle")
	if err := writeBundle(bundleDir, w, test, pred, val); err != nil {
		return nil, 0, fmt.Errorf("writing bundle: %w", err)
	}

	var backend http.Handler = cloud.NewServer(model).Handler()
	if traced {
		s.timer = &backendTimer{next: backend, recs: map[string][2]int64{}}
		backend = s.timer
	}
	s.backend = httptest.NewServer(backend)

	s.pool = scored
	if s.pool == nil {
		t0 := time.Now()
		if s.pool, err = scorePool(cloud.NewServer(model).Handler(), pool); err != nil {
			return nil, 0, err
		}
		oracle = time.Since(t0)
	}

	logger := quietLogger()
	manifest, lpred, lval, err := cli.LoadServingBundle(bundleDir, cloud.NewClient(s.backend.URL))
	if err != nil {
		return nil, 0, err
	}
	s.pred, s.val, s.classes, s.testScore = lpred, lval, manifest.Classes, manifest.TestScore
	mon, err := monitor.New(monitor.Config{
		Predictor: lpred, Validator: lval, Threshold: manifest.Threshold,
		Hysteresis: 1, TimelineWindow: 1, TimelineCapacity: 128,
		DashboardRefresh: 5 * time.Second,
	})
	if err != nil {
		return nil, 0, err
	}
	classes := append([]string(nil), manifest.Classes...)
	g, err := gateway.New(gateway.Config{
		Backend:         s.backend.URL,
		Monitor:         mon,
		RequestTimeout:  10 * time.Second,
		MaxRetries:      2,
		ShadowQueueSize: 256,
		RawDecoder: func(body []byte) (*data.Dataset, error) {
			return cloud.DecodeRequest(body, classes)
		},
		Logger: log.New(io.Discard, "", 0),
	})
	if err != nil {
		return nil, 0, err
	}
	s.gw = g
	reg := g.Metrics().Registry()
	obs.RegisterRuntimeMetrics(reg)
	closeTracing, err := cli.WireTracing(cli.TracingOptions{
		Dir: filepath.Join(dir, "traces"), Registry: reg, Logger: logger,
	})
	if err != nil {
		return nil, 0, err
	}
	s.closers = append(s.closers, closeTracing)
	mon.RegisterMetrics(reg)
	lstore, err := cli.WireLabels(mon, cli.LabelOptions{Registry: reg, Logger: logger})
	if err != nil {
		return nil, 0, err
	}
	rec, err := cli.WireIncidents(mon, cli.IncidentOptions{
		BundleDir: bundleDir, Dir: filepath.Join(dir, "incidents"),
		Labels: lstore, Serving: g.IncidentServing, Registry: reg, Logger: logger,
	})
	if err != nil {
		return nil, 0, err
	}
	db, closeTSDB, err := cli.WireTSDB(mon.Timeline(), cli.TSDBOptions{
		Dir: filepath.Join(dir, "tsdb"), Registry: reg, Logger: logger,
	})
	if err != nil {
		return nil, 0, err
	}
	s.db = db
	s.closers = append(s.closers, closeTSDB)
	// The benchmark's own observer runs after the label and incident
	// observers, so a verdict is timed once the whole record is done.
	mon.OnObserve(s.verdict.observe)

	mux := http.NewServeMux()
	mux.Handle("/", g.Handler())
	obs.MountPprof(mux)
	mux.Handle("/debug/spans", obs.DefaultTracer().Handler())
	mux.Handle(incident.MountPath, rec.Handler())
	mux.Handle(incident.MountPath+"/", rec.Handler())
	mux.Handle("/labels", lstore.Handler())
	mux.Handle("/labels/", lstore.Handler())
	mux.Handle("/monitor/timeline/range", db.RangeHandler())
	s.mux = mux
	s.front = httptest.NewServer(mux)

	if w.Prefill > 0 {
		rng := rngFor(seed, streamPrefill)
		ctx := context.Background()
		for i := 0; i < w.Prefill; i++ {
			proba := headRows(s.pool[rng.Intn(len(s.pool))].Proba, w.PrefillRows)
			mon.ObserveBatchProbaCtx(ctx, nil, proba, fmt.Sprintf("prefill-%06d", i))
		}
	}
	return s, oracle, nil
}

// headRows returns the first n rows of m (all of them when m is
// shorter).
func headRows(m *linalg.Matrix, n int) *linalg.Matrix {
	n = min(n, m.Rows)
	out := linalg.NewMatrix(n, m.Cols)
	for i := 0; i < n; i++ {
		copy(out.Row(i), m.Row(i))
	}
	return out
}

// close tears the system down in dependency order — front server,
// shadow worker (which drains its queue into the stores), tsdb and
// span journal, backend — and removes its scratch directory.
func (s *system) close() {
	if s.front != nil {
		s.front.Close()
	}
	if s.gw != nil {
		s.gw.Close()
	}
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	if s.backend != nil {
		s.backend.Close()
	}
	os.RemoveAll(s.dir)
}

// stats reads the counters the traced run diffs across the phases.
func (s *system) stats() sysStats {
	text := s.get("/metrics")
	st := sysStats{
		Fates:    metricSeries(text, "gateway_shadow_batches_total"),
		Requests: sumSeries(metricSeries(text, "gateway_requests_total")),
	}
	if j := obs.DefaultTracer().Journal(); j != nil {
		st.Journal = j.Appended()
	}
	if s.db != nil {
		st.TSDBBytes = s.db.Stats().Bytes
	}
	return st
}

// get serves one in-process GET against the gateway's mux, bypassing
// the network (used for polling and drain checks, never for load).
func (s *system) get(path string) string {
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Body.String()
}

// shadowSettled is how many tapped batches the shadow worker has
// finished with: observed, dropped from the full queue, or undecodable.
func (s *system) shadowSettled() int64 {
	fates := metricSeries(s.get("/metrics"), "gateway_shadow_batches_total")
	return s.gw.ShadowObserved() + int64(fates[`{fate="dropped"}`]+fates[`{fate="undecodable"}`])
}

// waitDrain blocks until the shadow worker has settled every one of the
// served batches, or the deadline passes; it reports which.
func (s *system) waitDrain(served int64, d time.Duration) bool {
	deadline := time.Now().Add(d)
	for {
		if s.shadowSettled() >= served {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}
