package labels

import (
	"fmt"
	"math/rand"
	"testing"

	"blackboxval/internal/linalg"
	"blackboxval/internal/monitor"
	"blackboxval/internal/obs"
)

// TestLaggedRampCredibleCoverage is the subsystem's end-to-end
// acceptance test: a deterministic ramp of served batches whose true
// accuracy is known, labels replayed with a fixed lag, and the
// per-window 95% credible intervals checked for >=0.9 empirical
// coverage of the truth over >=50 clean windows.
func TestLaggedRampCredibleCoverage(t *testing.T) {
	const (
		windows  = 60
		rows     = 120
		lag      = 3
		trueAcc  = 0.9
		level    = 0.95
		minCover = 0.9
	)
	s, ts := newTestStore(t, Config{Level: level, MaxLagWindows: 16})
	rng := rand.New(rand.NewSource(2026))

	type sent struct {
		id     string
		labels []int
		window int64
	}
	var backlog []sent
	covered, assessed := 0, 0
	var firstWidth float64
	// post delivers a batch's delayed labels, then immediately assesses
	// the fully labeled window's credible interval against the truth
	// (old per-window posteriors are pruned once they leave the join
	// horizon, so the check happens while the window is live).
	post := func(b sent) {
		s.Ingest([]Record{{RequestID: b.id, Labels: b.labels}})
		p, ok := s.WindowPosterior(b.window)
		if !ok {
			t.Fatalf("window %d has no posterior right after its labels joined", b.window)
		}
		if p.Labeled != rows {
			t.Fatalf("window %d assessed %d rows, want %d", b.window, p.Labeled, rows)
		}
		if assessed == 0 {
			firstWidth = p.Hi - p.Lo
		}
		assessed++
		if p.Lo <= trueAcc && trueAcc <= p.Hi {
			covered++
		}
	}
	for w := 0; w < windows; w++ {
		pred := make([]int, rows)
		labelVals := make([]int, rows)
		for i := range pred {
			pred[i] = rng.Intn(4)
			if rng.Float64() < trueAcc {
				labelVals[i] = pred[i]
			} else {
				labelVals[i] = (pred[i] + 1) % 4
			}
		}
		id := fmt.Sprintf("ramp-%04d", w)
		rec := serve(s, ts, id, pred, trueAcc, false)
		backlog = append(backlog, sent{id: id, labels: labelVals, window: rec.Window})
		// Delayed ground truth: labels for the batch served lag windows
		// ago arrive only now.
		if w >= lag {
			post(backlog[w-lag])
		}
	}
	// Tail flush: the last lag batches still get their labels.
	for _, b := range backlog[windows-lag:] {
		post(b)
	}

	if assessed < 50 {
		t.Fatalf("only %d windows assessed, need >= 50", assessed)
	}
	cov := float64(covered) / float64(assessed)
	if cov < minCover {
		t.Fatalf("empirical 95%% interval coverage %.3f over %d clean windows, need >= %v", cov, assessed, minCover)
	}

	// The lag metric must report the replay lag. A batch's own window
	// has already closed when its delayed labels arrive, so the
	// observed in-ramp lag is lag+1 open-window indices; the tail flush
	// drains the backlog down to lag 1.
	snap := s.Snapshot()
	if snap.LastLagWindows != 1 {
		t.Errorf("last lag %d windows, want 1 after the tail flush", snap.LastLagWindows)
	}
	if snap.MeanLagWindows < float64(lag)-0.5 || snap.MeanLagWindows > float64(lag)+1.5 {
		t.Errorf("mean lag %.2f windows, want ~%d", snap.MeanLagWindows, lag)
	}
	if snap.Coverage < 0.99 {
		t.Errorf("label coverage %.3f after full replay, want ~1", snap.Coverage)
	}

	// The conformal tracker saw h == trueAcc vs noisy realized accuracy:
	// its online coverage must be near the nominal level once warm.
	if snap.Conformal.Evaluated < 30 {
		t.Fatalf("conformal intervals evaluated %d times, want >= 30", snap.Conformal.Evaluated)
	}
	if snap.Conformal.Coverage < 0.85 {
		t.Errorf("conformal online coverage %.3f, want >= 0.85", snap.Conformal.Coverage)
	}

	// Interval width must shrink as evidence accumulates: the overall
	// posterior over ~7200 labels is far tighter than any single window.
	if o := snap.Overall.Hi - snap.Overall.Lo; o >= firstWidth {
		t.Errorf("overall interval width %.4f not tighter than single-window %.4f", o, firstWidth)
	}
}

// TestLaggedRampDetectsCorruption drives a clean ramp into a corrupted
// regime where the model's true accuracy collapses but h keeps
// reporting the clean estimate — the scenario the h_abs_gap series and
// its alert rule exist for.
func TestLaggedRampDetectsCorruption(t *testing.T) {
	s, ts := newTestStore(t, Config{MaxLagWindows: 16})
	rng := rand.New(rand.NewSource(7))
	serveWindow := func(w int, acc float64) {
		pred := make([]int, 100)
		labelVals := make([]int, 100)
		for i := range pred {
			pred[i] = rng.Intn(4)
			if rng.Float64() < acc {
				labelVals[i] = pred[i]
			} else {
				labelVals[i] = (pred[i] + 1) % 4
			}
		}
		id := fmt.Sprintf("w-%03d", w)
		serve(s, ts, id, pred, 0.9, false) // h stays at 0.9 throughout
		s.Ingest([]Record{{RequestID: id, Labels: labelVals}})
	}
	for w := 0; w < 20; w++ {
		serveWindow(w, 0.9)
	}
	cleanGap := lastSeries(ts, SeriesAbsGap)
	for w := 20; w < 30; w++ {
		serveWindow(100+w, 0.5) // corruption: true accuracy collapses
	}
	corruptGap := lastSeries(ts, SeriesAbsGap)
	if cleanGap > 0.1 {
		t.Errorf("clean |h - labeled acc| gap %.3f, want small", cleanGap)
	}
	if corruptGap < 0.25 {
		t.Errorf("corrupted gap %.3f, want a clear excursion an alert rule can fire on", corruptGap)
	}
}

// TestConformalCoverageThroughCorruption drives the lagged ramp from a
// clean regime into a corrupted one where h stays frozen at the clean
// estimate while the true accuracy collapses. The credible intervals
// must follow the labels in both regimes, and the online conformal
// interval around h must keep near-nominal coverage across the switch.
func TestConformalCoverageThroughCorruption(t *testing.T) {
	const seed, rows, lag, cleanAcc, corruptAcc = 1, 100, 3, 0.9, 0.55
	ts, err := obs.NewTimeSeries(obs.TimeSeriesConfig{WindowBatches: 1, Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Timeline: ts, MaxLagWindows: 16, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 41))
	if cov, n := laggedRamp(t, s, ts, rng, 60, rows, lag, cleanAcc, cleanAcc, "clean"); n < 50 || cov < 0.9 {
		t.Fatalf("clean 95%% interval coverage %.3f over %d windows, need >= 0.9 over >= 50", cov, n)
	}
	if cov, n := laggedRamp(t, s, ts, rng, 20, rows, lag, corruptAcc, cleanAcc, "corrupt"); cov < 0.9 {
		t.Fatalf("corrupted-stream interval coverage %.3f over %d windows, need >= 0.9 (intervals must track labels, not h)", cov, n)
	}
	c := s.Snapshot().Conformal
	if c.Evaluated < 30 {
		t.Fatalf("conformal intervals evaluated %d times, want >= 30", c.Evaluated)
	}
	if c.Coverage < 0.8 {
		t.Fatalf("conformal online coverage %.3f over %d intervals, need >= 0.8", c.Coverage, c.Evaluated)
	}
}

// laggedRamp serves windows batches of rows at trueAcc while h reports
// hEstimate, joins each batch's labels lag batches later, and assesses
// every window's 95% interval the moment its labels land. It returns
// the fraction of intervals covering trueAcc and how many were assessed.
func laggedRamp(t *testing.T, s *Store, ts *obs.TimeSeries, rng *rand.Rand,
	windows, rows, lag int, trueAcc, hEstimate float64, idPrefix string) (coverage float64, assessed int) {
	t.Helper()
	type sent struct {
		id     string
		labels []int
		window int64
	}
	var backlog []sent
	covered := 0
	post := func(b sent) {
		s.Ingest([]Record{{RequestID: b.id, Labels: b.labels}})
		p, ok := s.WindowPosterior(b.window)
		if !ok {
			t.Fatalf("window %d lost its posterior before assessment", b.window)
		}
		assessed++
		if p.Lo <= trueAcc && trueAcc <= p.Hi {
			covered++
		}
	}
	for w := 0; w < windows; w++ {
		proba := linalg.NewMatrix(rows, 4)
		labelVals := make([]int, rows)
		for i := range labelVals {
			c := rng.Intn(4)
			proba.Set(i, c, 1)
			if rng.Float64() < trueAcc {
				labelVals[i] = c
			} else {
				labelVals[i] = (c + 1) % 4
			}
		}
		id := fmt.Sprintf("%s-%05d", idPrefix, w)
		rec := monitor.Record{RequestID: id, Estimate: hEstimate, Window: ts.OpenIndex()}
		s.ObserveBatch(nil, proba, rec)
		ts.Commit()
		backlog = append(backlog, sent{id: id, labels: labelVals, window: rec.Window})
		if w >= lag {
			post(backlog[w-lag])
		}
	}
	for _, b := range backlog[windows-lag:] {
		post(b)
	}
	return float64(covered) / float64(assessed), assessed
}

// lastSeries returns the named series' Last value in the most recent
// closed window that carries it.
func lastSeries(ts *obs.TimeSeries, name string) float64 {
	wins := ts.Windows()
	for i := len(wins) - 1; i >= 0; i-- {
		if agg, ok := wins[i].Series[name]; ok {
			return agg.Last
		}
	}
	return 0
}
