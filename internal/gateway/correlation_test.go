package gateway

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"blackboxval/internal/cloud"
	"blackboxval/internal/errorgen"
	"blackboxval/internal/monitor"
	"blackboxval/internal/obs"
	"blackboxval/internal/obs/alert"
)

// TestRequestIDPinnedOnEveryStatusClass pins the correlation contract:
// every response leaving the proxy path carries exactly one
// X-Request-ID, whatever the status — success, relayed backend errors,
// and every gateway-originated failure (405, 400, 502, 503, 504).
func TestRequestIDPinnedOnEveryStatusClass(t *testing.T) {
	f := getFixture(t)
	real := cloud.NewServer(f.model).Handler()
	var backendSawID string
	var mu sync.Mutex
	backend := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		backendSawID = r.Header.Get(obs.RequestIDHeader)
		mu.Unlock()
		// Echo the id like a backend running obs.Middleware would; the
		// gateway must still emit the header exactly once.
		if id := r.Header.Get(obs.RequestIDHeader); id != "" {
			w.Header().Set(obs.RequestIDHeader, id)
		}
		real.ServeHTTP(w, r)
	})
	_, gwSrv := newGateway(t, Config{
		MaxRetries:     0, // no retries: error paths stay single-attempt
		RequestTimeout: 5 * time.Second,
		Breaker:        BreakerConfig{FailureThreshold: 100, Cooldown: time.Minute},
		Tracer:         obs.NewTracer(16),
		Logger:         log.New(io.Discard, "", 0),
	}, backend)

	requireID := func(t *testing.T, resp *http.Response, wantStatus int) string {
		t.Helper()
		if resp.StatusCode != wantStatus {
			t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
		}
		ids := resp.Header.Values(obs.RequestIDHeader)
		if len(ids) != 1 || ids[0] == "" {
			t.Fatalf("X-Request-ID values = %v, want exactly one non-empty id", ids)
		}
		return ids[0]
	}

	body := encodeBatch(t, f.serving)

	// 200: proxied success, id minted and propagated to the backend.
	resp, _ := post(t, gwSrv.URL, body)
	id := requireID(t, resp, http.StatusOK)
	mu.Lock()
	if backendSawID != id {
		t.Fatalf("backend saw id %q, client saw %q", backendSawID, id)
	}
	mu.Unlock()

	// Client-supplied ids are reused, not replaced.
	req, _ := http.NewRequest(http.MethodPost, gwSrv.URL+"/predict_proba", bytes.NewReader(body))
	req.Header.Set(obs.RequestIDHeader, "client-chose-this")
	clientResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	clientResp.Body.Close()
	if got := requireID(t, clientResp, http.StatusOK); got != "client-chose-this" {
		t.Fatalf("client id replaced with %q", got)
	}

	// Relayed backend 4xx.
	resp, _ = post(t, gwSrv.URL, []byte("{}"))
	requireID(t, resp, http.StatusBadRequest)

	// 405: method rejected by the gateway itself.
	getResp, err := http.Get(gwSrv.URL + "/predict_proba")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	requireID(t, getResp, http.StatusMethodNotAllowed)

	// 504: backend slower than the request timeout.
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(200 * time.Millisecond)
	}))
	defer slow.Close()
	gSlow, err := New(Config{Backend: slow.URL, MaxRetries: 0,
		RequestTimeout: 20 * time.Millisecond, Tracer: obs.NewTracer(16),
		Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer gSlow.Close()
	slowSrv := httptest.NewServer(gSlow.Handler())
	defer slowSrv.Close()
	resp, _ = post(t, slowSrv.URL, body)
	requireID(t, resp, http.StatusGatewayTimeout)

	// 502 then 503: a dead backend trips a one-failure breaker; both the
	// failing response and the shed response carry ids.
	gDead, err := New(Config{Backend: "http://127.0.0.1:1", MaxRetries: 0,
		RequestTimeout: time.Second, Tracer: obs.NewTracer(16),
		Breaker: BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute},
		Logger:  log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer gDead.Close()
	deadSrv := httptest.NewServer(gDead.Handler())
	defer deadSrv.Close()
	resp, _ = post(t, deadSrv.URL, body)
	requireID(t, resp, http.StatusBadGateway)
	resp, _ = post(t, deadSrv.URL, body)
	requireID(t, resp, http.StatusServiceUnavailable)
}

// TestEndToEndCorrelationAndAlerting is the PR's acceptance scenario: a
// corruption ramp through the gateway's shadow path drives the drift
// timeline down, the matching alert rule fires exactly once (no
// flapping), the webhook receives the payload, and one sampled
// request's X-Request-ID shows up in the gateway log, the span export
// and the monitor observation.
func TestEndToEndCorrelationAndAlerting(t *testing.T) {
	f := getFixture(t)

	// Capture structured logs at debug level for the correlation check.
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	prevLogger := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(lockedWriter{&logMu, &logBuf},
		&slog.HandlerOptions{Level: slog.LevelDebug})))
	defer slog.SetDefault(prevLogger)

	mon, err := monitor.New(monitor.Config{Predictor: f.pred, Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}

	// Webhook sink collecting alert payloads.
	var whMu sync.Mutex
	var payloads []alert.Event
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ev alert.Event
		if err := json.NewDecoder(r.Body).Decode(&ev); err != nil {
			t.Errorf("webhook decode: %v", err)
			return
		}
		whMu.Lock()
		payloads = append(payloads, ev)
		whMu.Unlock()
	}))
	defer sink.Close()
	webhook, err := alert.NewWebhook(alert.WebhookConfig{URL: sink.URL})
	if err != nil {
		t.Fatal(err)
	}

	// Rule: the monitor's alarm signal held for 2 consecutive windows.
	engine, err := alert.New(alert.Config{
		Rules: []alert.Rule{{
			Name: "estimate_below_line", Series: "alarm", Op: ">=", Threshold: 1,
			ForWindows: 2, ClearWindows: 2, Severity: "critical",
		}},
		Notifier: webhook,
	})
	if err != nil {
		t.Fatal(err)
	}
	alertReg := obs.NewRegistry()
	engine.RegisterMetrics(alertReg)
	mon.Timeline().OnWindowClose(engine.Evaluate)

	tracer := obs.NewTracer(64)
	g, gwSrv := newGateway(t, Config{Monitor: mon, Tracer: tracer,
		Logger: log.New(io.Discard, "", 0)}, cloud.NewServer(f.model).Handler())

	// The corruption ramp: clean traffic decays into a severely scaled
	// feature distribution, exactly the drift the paper's predictor is
	// trained to catch.
	rng := rand.New(rand.NewSource(11))
	ramp := []float64{0, 0, 0.5, 0.95, 0.95, 0.95}
	var sampledID string
	for i, magnitude := range ramp {
		batch := f.serving
		if magnitude > 0 {
			batch = errorgen.Scaling{}.Corrupt(f.serving, magnitude, rng)
		}
		resp, _ := post(t, gwSrv.URL, encodeBatch(t, batch))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ramp batch %d status = %d", i, resp.StatusCode)
		}
		if i == 0 {
			sampledID = resp.Header.Get(obs.RequestIDHeader)
			if sampledID == "" {
				t.Fatal("no request id on sampled request")
			}
		}
	}
	waitObserved(t, g, int64(len(ramp)))
	webhook.Close() // drains pending deliveries

	// Timeline: one window per batch, estimates decline across the ramp
	// and end below the alarm line.
	windows := mon.Timeline().Windows()
	if len(windows) != len(ramp) {
		t.Fatalf("timeline windows = %d, want %d", len(windows), len(ramp))
	}
	first := windows[0].Series["estimate"].Mean()
	last := windows[len(windows)-1].Series["estimate"].Mean()
	if first <= last {
		t.Fatalf("estimate did not decline: first %v last %v", first, last)
	}
	if last >= mon.AlarmLine() {
		t.Fatalf("final estimate %v not below alarm line %v", last, mon.AlarmLine())
	}

	// The rule fired exactly once — hysteresis, no flapping.
	whMu.Lock()
	firing := 0
	for _, ev := range payloads {
		if ev.State == "firing" {
			firing++
		}
	}
	if firing != 1 {
		t.Fatalf("firing events = %d (payloads %+v), want exactly 1", firing, payloads)
	}
	if payloads[0].Rule != "estimate_below_line" || payloads[0].Severity != "critical" {
		t.Fatalf("webhook payload = %+v", payloads[0])
	}
	whMu.Unlock()
	var metricsOut strings.Builder
	if _, err := alertReg.WriteTo(&metricsOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metricsOut.String(), `ppm_alerts_total{rule="estimate_below_line"} 1`) {
		t.Fatalf("alert counter wrong:\n%s", metricsOut.String())
	}
	if !strings.Contains(metricsOut.String(), `ppm_alert_active{rule="estimate_below_line"} 1`) {
		t.Fatalf("alert gauge wrong:\n%s", metricsOut.String())
	}

	// Correlation: the sampled id is in the gateway's structured log...
	logMu.Lock()
	logged := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logged, "request_id="+sampledID) {
		t.Fatalf("gateway log missing %q:\n%s", sampledID, logged)
	}
	// ...in the span export...
	spanJSON, err := tracer.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var spans []obs.SpanJSON
	if err := json.Unmarshal(spanJSON, &spans); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sp := range spans {
		if sp.Attrs["request_id"] == sampledID {
			found = true
			if sp.Attrs["outcome"] != "ok" {
				t.Fatalf("sampled span outcome = %q", sp.Attrs["outcome"])
			}
		}
	}
	if !found {
		t.Fatalf("span export missing request id %q", sampledID)
	}
	// ...and on the monitor observation the shadow tap produced.
	found = false
	for _, rec := range mon.History() {
		if rec.RequestID == sampledID {
			found = true
		}
	}
	if !found {
		t.Fatalf("monitor history missing request id %q", sampledID)
	}
}

// lockedWriter serializes concurrent slog writes in tests.
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
