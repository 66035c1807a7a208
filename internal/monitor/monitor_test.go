package monitor

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"blackboxval/internal/core"
	"blackboxval/internal/data"
	"blackboxval/internal/datagen"
	"blackboxval/internal/errorgen"
	"blackboxval/internal/linalg"
	"blackboxval/internal/models"
)

// setup trains a small black box and predictor shared by the tests.
type fixture struct {
	model   data.Model
	pred    *core.Predictor
	val     *core.Validator
	serving *data.Dataset
}

var (
	fixOnce sync.Once
	fix     fixture
)

func getFixture(t *testing.T) fixture {
	t.Helper()
	fixOnce.Do(func() {
		rng := rand.New(rand.NewSource(1))
		ds := datagen.Income(3000, 1).Balance(rng)
		source, serving := ds.Split(0.7, rng)
		train, test := source.Split(0.6, rng)
		model, err := models.TrainPipeline(train, &models.GBDTClassifier{Trees: 20, Seed: 1}, 64)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := core.TrainPredictor(model, test, core.PredictorConfig{
			Generators:  errorgen.KnownTabular(),
			Repetitions: 40,
			ForestSizes: []int{30},
			Seed:        1,
		})
		if err != nil {
			t.Fatal(err)
		}
		val, err := core.TrainValidator(model, test, core.ValidatorConfig{
			Generators: errorgen.KnownTabular(),
			Threshold:  0.05,
			Batches:    80,
			Seed:       1,
		})
		if err != nil {
			t.Fatal(err)
		}
		fix = fixture{model: model, pred: pred, val: val, serving: serving}
	})
	return fix
}

func TestNewValidation(t *testing.T) {
	f := getFixture(t)
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing predictor should error")
	}
	if _, err := New(Config{Predictor: f.pred, Threshold: 1.5}); err == nil {
		t.Fatal("bad threshold should error")
	}
	if _, err := New(Config{Predictor: f.pred, Hysteresis: -1}); err == nil {
		t.Fatal("negative hysteresis should error")
	}
	if _, err := New(Config{Predictor: f.pred, WindowSize: -1}); err == nil {
		t.Fatal("negative window size should error")
	}
}

func TestCleanBatchesDoNotAlarm(t *testing.T) {
	f := getFixture(t)
	m, err := New(Config{Predictor: f.pred, Threshold: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		rec := m.Observe(f.serving)
		if rec.Alarming {
			t.Fatalf("batch %d: clean data alarmed (estimate %v, line %v)", i, rec.Estimate, m.AlarmLine())
		}
	}
	if m.Alarming() {
		t.Fatal("monitor in alarm state after clean batches")
	}
}

func TestCatastrophicCorruptionAlarms(t *testing.T) {
	f := getFixture(t)
	m, err := New(Config{Predictor: f.pred, Validator: f.val, Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	broken := errorgen.Scaling{}.Corrupt(f.serving, 0.95, rng)
	rec := m.Observe(broken)
	if !rec.Violating {
		t.Fatalf("catastrophic corruption not violating: estimate %v line %v", rec.Estimate, m.AlarmLine())
	}
	if !m.Alarming() {
		t.Fatal("monitor should be alarming")
	}
}

func TestHysteresisSuppressesSingleFluke(t *testing.T) {
	f := getFixture(t)
	m, err := New(Config{Predictor: f.pred, Threshold: 0.05, Hysteresis: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	broken := errorgen.Scaling{}.Corrupt(f.serving, 0.95, rng)

	// One violating batch: no alarm yet.
	rec := m.Observe(broken)
	if rec.Alarming || m.Alarming() {
		t.Fatal("alarm fired before hysteresis count")
	}
	// A clean batch resets the run.
	m.Observe(f.serving)
	m.Observe(broken)
	m.Observe(broken)
	if m.Alarming() {
		t.Fatal("run should have been reset by the clean batch")
	}
	// Third consecutive violation fires.
	rec = m.Observe(broken)
	if !rec.Alarming || !m.Alarming() {
		t.Fatal("alarm should fire after 3 consecutive violations")
	}
}

func TestHistoryBoundedAndOrdered(t *testing.T) {
	f := getFixture(t)
	m, err := New(Config{Predictor: f.pred, HistoryLimit: 4})
	if err != nil {
		t.Fatal(err)
	}
	proba := f.model.PredictProba(f.serving)
	for i := 0; i < 10; i++ {
		m.ObserveProba(proba)
	}
	hist := m.History()
	if len(hist) != 4 {
		t.Fatalf("history length = %d, want 4", len(hist))
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].Seq != hist[i-1].Seq+1 {
			t.Fatalf("history not contiguous: %v", hist)
		}
	}
	if hist[3].Seq != 9 {
		t.Fatalf("latest record seq = %d, want 9", hist[3].Seq)
	}
}

func TestSummarize(t *testing.T) {
	f := getFixture(t)
	m, err := New(Config{Predictor: f.pred, Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if s := m.Summarize(); s.Batches != 0 {
		t.Fatal("empty monitor should summarize to zero")
	}
	rng := rand.New(rand.NewSource(4))
	m.Observe(f.serving)
	m.Observe(errorgen.Scaling{}.Corrupt(f.serving, 0.95, rng))
	s := m.Summarize()
	if s.Batches != 2 {
		t.Fatalf("batches = %d", s.Batches)
	}
	if s.MinEstimate > s.MeanEstimate {
		t.Fatal("min > mean")
	}
	if s.Violations < 1 {
		t.Fatal("catastrophic batch not counted as violation")
	}
	if s.LastEstimate != m.History()[1].Estimate {
		t.Fatal("last estimate mismatch")
	}
}

func TestObserveRowWindowing(t *testing.T) {
	f := getFixture(t)
	m, err := New(Config{Predictor: f.pred, Threshold: 0.1, WindowSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	proba := f.model.PredictProba(f.serving)
	emitted := 0
	for i := 0; i < proba.Rows && i < 450; i++ {
		rec, done := m.ObserveRow(proba.Row(i))
		if done {
			emitted++
			if rec.Size != 200 {
				t.Fatalf("window record size = %d, want 200", rec.Size)
			}
			if rec.Alarming {
				t.Fatalf("clean stream window alarmed: estimate %v line %v", rec.Estimate, m.AlarmLine())
			}
		}
	}
	if emitted != 2 {
		t.Fatalf("emitted %d windows from 450 rows at window size 200", emitted)
	}
	if got := len(m.History()); got != 2 {
		t.Fatalf("history = %d records", got)
	}
}

func TestObserveRowDetectsCorruptedStream(t *testing.T) {
	f := getFixture(t)
	m, err := New(Config{Predictor: f.pred, Threshold: 0.05, WindowSize: 300})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	broken := errorgen.Scaling{}.Corrupt(f.serving, 0.95, rng)
	proba := f.model.PredictProba(broken)
	var last Record
	got := false
	for i := 0; i < proba.Rows && i < 300; i++ {
		if rec, done := m.ObserveRow(proba.Row(i)); done {
			last = rec
			got = true
		}
	}
	if !got {
		t.Fatal("no window emitted")
	}
	if !last.Violating {
		t.Fatalf("catastrophic stream window not violating: estimate %v line %v", last.Estimate, m.AlarmLine())
	}
}

func TestConcurrentObserve(t *testing.T) {
	f := getFixture(t)
	m, err := New(Config{Predictor: f.pred})
	if err != nil {
		t.Fatal(err)
	}
	proba := f.model.PredictProba(f.serving)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				m.ObserveProba(proba)
			}
		}()
	}
	wg.Wait()
	if got := len(m.History()); got != 160 {
		t.Fatalf("history length = %d, want 160", got)
	}
	seen := map[int]bool{}
	for _, rec := range m.History() {
		if seen[rec.Seq] {
			t.Fatal("duplicate sequence number under concurrency")
		}
		seen[rec.Seq] = true
	}
}

func TestObserveRowWidthPanic(t *testing.T) {
	f := getFixture(t)
	m, err := New(Config{Predictor: f.pred})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a row with the wrong class count should panic")
		}
	}()
	m.ObserveRow([]float64{0.5, 0.3, 0.2})
}

// sameFloats reports whether a and b hold the same IEEE-754 bit patterns.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestObserveRowMatchesBatch pins the streaming part of the behaviour
// fingerprint: a window of N rows fed through ObserveRow gets the same
// record, bit for bit, as ObserveBatchProbaCtx on those N rows through a
// twin monitor. The caller reuses one row slice for every call, so a
// window that kept the caller's slice instead of copying it would fail.
func TestObserveRowMatchesBatch(t *testing.T) {
	f := getFixture(t)
	rng := rand.New(rand.NewSource(21))
	clean := f.model.PredictProba(f.serving)
	broken := f.model.PredictProba(errorgen.Scaling{}.Corrupt(f.serving, 0.9, rng))
	violating := 0
	for _, size := range []int{2, 137, 500} {
		cfg := Config{Predictor: f.pred, Validator: f.val, Threshold: 0.1, WindowSize: size}
		rows, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		batches, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		row := make([]float64, clean.Cols)
		next := 0
		for _, src := range []*linalg.Matrix{clean, broken, clean, broken} {
			window := linalg.NewMatrix(size, src.Cols)
			for i := 0; i < size; i++ {
				copy(row, src.Row(next%src.Rows))
				copy(window.Row(i), row)
				next += 7
				got, done := rows.ObserveRow(row)
				if done != (i == size-1) {
					t.Fatalf("size %d: row %d of the window returned done=%t", size, i, done)
				}
				if !done {
					continue
				}
				want := batches.ObserveBatchProbaCtx(context.Background(), nil, window, "")
				if math.Float64bits(got.Estimate) != math.Float64bits(want.Estimate) ||
					math.Float64bits(got.KSMax) != math.Float64bits(want.KSMax) ||
					!sameFloats(got.KS, want.KS) || !sameFloats(got.P50Shift, want.P50Shift) ||
					got.EstimateViolation != want.EstimateViolation ||
					got.ValidatorViolation != want.ValidatorViolation ||
					got.Violating != want.Violating || got.Alarming != want.Alarming ||
					got.Size != want.Size || got.Seq != want.Seq || got.Window != want.Window {
					t.Fatalf("size %d: row window %+v, batch %+v", size, got, want)
				}
				if got.Violating {
					violating++
				}
			}
		}
	}
	if violating == 0 {
		t.Fatal("no window violated: the corrupted rows did not exercise the verdict")
	}
}

// TestObserveNaNOutputsReturn pins that NaN model outputs cannot hang
// the monitor: the drift statistics exclude NaNs, whether they arrive in
// a batch or in a streamed row.
func TestObserveNaNOutputsReturn(t *testing.T) {
	f := getFixture(t)
	m, err := New(Config{Predictor: f.pred, Validator: f.val, WindowSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	proba := f.model.PredictProba(f.serving)
	proba.Set(3, 0, math.NaN())
	done := make(chan []Record, 1)
	go func() {
		recs := []Record{m.ObserveProba(proba)}
		for i := 0; i < 50; i++ {
			row := proba.Row(i)
			if i == 10 {
				row = []float64{math.NaN(), math.NaN()}
			}
			if rec, full := m.ObserveRow(row); full {
				recs = append(recs, rec)
			}
		}
		done <- recs
	}()
	select {
	case recs := <-done:
		if len(recs) != 2 {
			t.Fatalf("got %d records, want a batch and a row window", len(recs))
		}
		for _, rec := range recs {
			for c, d := range rec.KS {
				if !(d >= 0 && d <= 1) {
					t.Fatalf("record %d: KS[%d] = %v", rec.Seq, c, d)
				}
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("observing NaN outputs did not return")
	}
}
