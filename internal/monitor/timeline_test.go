package monitor

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"blackboxval/internal/data"
	"blackboxval/internal/errorgen"
	"blackboxval/internal/linalg"
	"blackboxval/internal/obs"
)

func TestTimelineFeedAndDriftStats(t *testing.T) {
	f := getFixture(t)
	m, err := New(Config{Predictor: f.pred, Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	cleanRec := m.Observe(f.serving)
	if cleanRec.KS == nil || cleanRec.P50Shift == nil {
		t.Fatal("drift stats missing on a batch observation")
	}
	classes := f.pred.TestOutputs().Cols
	if len(cleanRec.KS) != classes || len(cleanRec.P50Shift) != classes {
		t.Fatalf("drift stats have %d/%d entries, want %d classes",
			len(cleanRec.KS), len(cleanRec.P50Shift), classes)
	}

	rng := rand.New(rand.NewSource(7))
	broken := errorgen.Scaling{}.Corrupt(f.serving, 0.95, rng)
	brokenRec := m.Observe(broken)
	if brokenRec.KSMax <= cleanRec.KSMax {
		t.Fatalf("corruption should raise KSMax: clean %v broken %v",
			cleanRec.KSMax, brokenRec.KSMax)
	}

	windows := m.Timeline().Windows()
	if len(windows) != 2 {
		t.Fatalf("timeline windows = %d, want 2", len(windows))
	}
	last := windows[1]
	for _, series := range []string{"estimate", "alarm", "violation", "batch_size", "ks_max"} {
		if _, ok := last.Series[series]; !ok {
			t.Fatalf("timeline window missing series %q (have %v)", series, last.Series)
		}
	}
	if got := last.Series["estimate"].Last; got != brokenRec.Estimate {
		t.Fatalf("timeline estimate = %v, want %v", got, brokenRec.Estimate)
	}
	if got := last.Series["ks_max"].Last; got != brokenRec.KSMax {
		t.Fatalf("timeline ks_max = %v, want %v", got, brokenRec.KSMax)
	}
	if _, ok := last.Series["ks_class_0"]; !ok {
		t.Fatal("per-class KS series missing")
	}
	if _, ok := last.Series["p50_shift_class_0"]; !ok {
		t.Fatal("per-class p50 shift series missing")
	}
}

func TestTimelineWindowAggregation(t *testing.T) {
	f := getFixture(t)
	m, err := New(Config{Predictor: f.pred, TimelineWindow: 2, TimelineCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	proba := f.model.PredictProba(f.serving)
	for i := 0; i < 4; i++ {
		m.ObserveProba(proba)
	}
	windows := m.Timeline().Windows()
	if len(windows) != 2 {
		t.Fatalf("4 batches at 2/window -> %d windows, want 2", len(windows))
	}
	if windows[0].Batches != 2 || windows[0].Series["estimate"].Count != 2 {
		t.Fatalf("window aggregation = %+v", windows[0])
	}
}

func TestObserveCarriesRequestID(t *testing.T) {
	f := getFixture(t)
	m, err := New(Config{Predictor: f.pred})
	if err != nil {
		t.Fatal(err)
	}
	proba := f.model.PredictProba(f.serving)
	rec := m.ObserveBatchProbaCtx(context.Background(), nil, proba, "gw-00000042")
	if rec.RequestID != "gw-00000042" {
		t.Fatalf("record request id = %q", rec.RequestID)
	}
	hist := m.History()
	if hist[len(hist)-1].RequestID != "gw-00000042" {
		t.Fatal("request id not retained in history")
	}
	// Plain ObserveProba leaves the id empty and omits it from JSON.
	m.ObserveProba(proba)
	buf, err := json.Marshal(m.History())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), `"RequestID":"gw-00000042"`) {
		t.Fatalf("history JSON missing request id: %s", buf)
	}
	if strings.Count(string(buf), "RequestID") != 1 {
		t.Fatalf("empty request ids should be omitted: %s", buf)
	}
}

func TestObserveRowFeedsTimelineWithDriftStats(t *testing.T) {
	f := getFixture(t)
	m, err := New(Config{Predictor: f.pred, WindowSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	proba := f.model.PredictProba(f.serving)
	for i := 0; i < 100; i++ {
		m.ObserveRow(proba.Row(i))
	}
	windows := m.Timeline().Windows()
	if len(windows) != 1 {
		t.Fatalf("timeline windows = %d, want 1", len(windows))
	}
	// A full row window is observed like a batch of its rows, so it
	// feeds the drift statistics and the output distributions too.
	for _, series := range []string{"estimate", "ks_max", "ks_class_0", "p50_shift_class_1", "proba_class_0"} {
		if _, ok := windows[0].Series[series]; !ok {
			t.Fatalf("streamed window missing series %q", series)
		}
	}
	if got := windows[0].Series["proba_class_0"].Count; got != 100 {
		t.Fatalf("proba_class_0 count = %d, want the window's 100 rows", got)
	}
}

func TestTimelineEndpointAndDashboard(t *testing.T) {
	f := getFixture(t)
	m, err := New(Config{Predictor: f.pred, DashboardRefresh: 1234 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(f.serving)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/timeline status = %d", resp.StatusCode)
	}
	var doc TimelineDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RefreshMillis != 1234 {
		t.Fatalf("refresh_ms = %d, want 1234 (flag-configured)", doc.RefreshMillis)
	}
	if doc.AlarmLine != m.AlarmLine() || doc.WindowBatches != 1 || doc.Capacity != 128 {
		t.Fatalf("doc = %+v", doc)
	}
	if len(doc.Windows) != 1 || doc.Windows[0].Series["estimate"].Count != 1 {
		t.Fatalf("windows = %+v", doc.Windows)
	}

	page, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, page)
	if page.StatusCode != http.StatusOK || !strings.Contains(page.Header.Get("Content-Type"), "text/html") {
		t.Fatalf("dashboard status = %d content-type = %q", page.StatusCode, page.Header.Get("Content-Type"))
	}
	// The page polls the timeline endpoint by relative URL, so it works
	// both standalone and under the gateway's /monitor/ prefix.
	if !strings.Contains(body, `fetch("timeline")`) {
		t.Fatal("dashboard does not poll /timeline")
	}
	if !strings.Contains(body, "refresh_ms") {
		t.Fatal("dashboard ignores the server-configured refresh interval")
	}

	if resp, _ := http.Get(srv.URL + "/definitely-not-here"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status = %d, want 404", resp.StatusCode)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestOnObserveOrdering pins the observer contract the incident flight
// recorder depends on: by the time a BatchObserver runs, the record is
// committed to history (so a capture sees consistent state), and the
// batch has NOT yet fed the timeline — so an OnWindowClose alert hook
// that triggers a capture always finds the triggering batch already in
// the observer's reservoir.
func TestOnObserveOrdering(t *testing.T) {
	f := getFixture(t)
	m, err := New(Config{Predictor: f.pred})
	if err != nil {
		t.Fatal(err)
	}
	proba := f.model.PredictProba(f.serving)

	var observed, closed int
	m.Timeline().OnWindowClose(func(obs.Window) {
		if observed != closed+1 {
			t.Errorf("window %d closed before its batch observer ran (observed=%d)", closed, observed)
		}
		closed++
	})
	m.OnObserve(func(batch *data.Dataset, p *linalg.Matrix, rec Record) {
		observed++
		if batch != f.serving || p != proba {
			t.Error("observer did not receive the observed batch and outputs")
		}
		if rec.RequestID != "req-7" {
			t.Errorf("observer record request id = %q", rec.RequestID)
		}
		hist := m.History()
		if len(hist) == 0 || hist[len(hist)-1].Seq != rec.Seq {
			t.Error("observer ran before the record was committed to history")
		}
		if got := m.Timeline().Len(); got != closed {
			t.Errorf("timeline advanced to %d windows before observers ran", got)
		}
	})

	m.ObserveBatchProbaCtx(context.Background(), f.serving, proba, "req-7")
	m.ObserveBatchProbaCtx(context.Background(), f.serving, proba, "req-7")
	if observed != 2 || closed != 2 {
		t.Fatalf("observed=%d closed=%d, want 2/2", observed, closed)
	}
}

// TestObservedLagsUntilTimelineFed pins the Observed watermark that
// /federate ships: a batch counts only after its signals fed the drift
// timeline, so neither a batch observer nor the window-close hook its
// batch triggers sees that batch counted yet.
func TestObservedLagsUntilTimelineFed(t *testing.T) {
	f := getFixture(t)
	m, err := New(Config{Predictor: f.pred, WindowSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	proba := f.model.PredictProba(f.serving)
	var seen, closes []int
	m.OnObserve(func(_ *data.Dataset, _ *linalg.Matrix, rec Record) {
		if got := m.Observed(); got != rec.Seq {
			t.Errorf("observer of batch %d sees Observed()=%d, want %d", rec.Seq, got, rec.Seq)
		}
		seen = append(seen, rec.Seq)
	})
	m.Timeline().OnWindowClose(func(obs.Window) { closes = append(closes, m.Observed()) })

	for i := 0; i < 3; i++ {
		m.ObserveProba(proba)
		if got := m.Observed(); got != i+1 {
			t.Fatalf("after batch %d returned Observed()=%d, want %d", i, got, i+1)
		}
	}
	for i := 0; i < 50; i++ {
		m.ObserveRow(proba.Row(i))
	}
	if got := m.Observed(); got != 4 {
		t.Fatalf("after a streamed window Observed()=%d, want 4", got)
	}
	if len(seen) != 4 {
		t.Fatalf("observers ran %d times, want 4", len(seen))
	}
	for i, got := range closes {
		if got != i {
			t.Fatalf("window %d closed with Observed()=%d, want %d", i, got, i)
		}
	}
}

// TestTimelineWraparoundRacingScrape wraps the timeline ring several
// times over while a scraper hammers /timeline and an OnWindowClose
// hook (standing in for the alert engine) observes every close. Run
// under -race this pins the snapshot isolation of closed windows.
func TestTimelineWraparoundRacingScrape(t *testing.T) {
	f := getFixture(t)
	const capacity, batches = 4, 32
	m, err := New(Config{Predictor: f.pred, TimelineCapacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	proba := f.model.PredictProba(f.serving)

	var closes atomic.Int64
	m.Timeline().OnWindowClose(func(obs.Window) { closes.Add(1) })

	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < batches; i++ {
			m.ObserveProba(proba)
		}
	}()
	for {
		resp, err := http.Get(srv.URL + "/timeline")
		if err != nil {
			t.Fatal(err)
		}
		var doc TimelineDoc
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(doc.Windows) > capacity {
			t.Fatalf("ring exceeded capacity: %d windows", len(doc.Windows))
		}
		// Every scrape, mid-wraparound or not, sees a gapless suffix of
		// the window stream.
		for j := 1; j < len(doc.Windows); j++ {
			if doc.Windows[j].Index != doc.Windows[j-1].Index+1 {
				t.Fatalf("window indices not contiguous: %d after %d",
					doc.Windows[j].Index, doc.Windows[j-1].Index)
			}
		}
		select {
		case <-done:
		default:
			continue
		}
		break
	}

	if got := closes.Load(); got != batches {
		t.Fatalf("OnWindowClose fired %d times, want %d", got, batches)
	}
	windows := m.Timeline().Windows()
	if len(windows) != capacity {
		t.Fatalf("retained %d windows, want capacity %d", len(windows), capacity)
	}
	if last := windows[len(windows)-1].Index; last != batches-1 {
		t.Fatalf("newest window index = %d, want %d", last, batches-1)
	}
}

// TestMonitorResponseHeaderHygiene asserts every monitor endpoint
// declares its media type and opts out of caching — monitoring state
// is live data; a cached /summary hides an outage.
func TestMonitorResponseHeaderHygiene(t *testing.T) {
	f := getFixture(t)
	m, err := New(Config{Predictor: f.pred})
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(f.serving)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	cases := []struct{ path, ctPrefix string }{
		{"/", "text/html"},
		{"/timeline", "application/json"},
		{"/summary", "application/json"},
		{"/history", "application/json"},
		{"/alarming", "application/json"},
		{"/healthz", "text/plain"},
	}
	for _, c := range cases {
		resp, err := http.Get(srv.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d", c.path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, c.ctPrefix) {
			t.Errorf("%s Content-Type = %q, want prefix %q", c.path, ct, c.ctPrefix)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Errorf("%s Cache-Control = %q, want no-store", c.path, cc)
		}
	}
}
