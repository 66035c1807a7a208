package cli

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"blackboxval/internal/monitor"
	"blackboxval/internal/obs"
	"blackboxval/internal/obs/alert"
)

func quietSlog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func TestWireAlertsNoopWithoutRules(t *testing.T) {
	engine, closer, err := WireAlertEngine(nil, AlertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if engine != nil {
		t.Fatal("no rules should mean no engine")
	}
	if closer == nil {
		t.Fatal("closer must never be nil on success")
	}
	closer()
}

func TestWireAlertsWebhookNeedsRules(t *testing.T) {
	_, _, err := WireAlertEngine(nil, AlertOptions{WebhookURL: "http://127.0.0.1:1"})
	if err == nil {
		t.Fatal("webhook without rules should error")
	}
	if !strings.Contains(err.Error(), "-alert-rules") {
		t.Fatalf("error should point at the missing flag: %v", err)
	}
}

func TestWireAlertsRejectsBadRuleFiles(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := WireAlertEngine(nil, AlertOptions{
		RulesPath: filepath.Join(dir, "missing.json"),
	}); err == nil {
		t.Fatal("missing rule file should error")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := writeFile(bad, `[{"name": "r", "series": "estimate", "op": "~", "threshold": 1}]`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := WireAlertEngine(nil, AlertOptions{RulesPath: bad, Logger: quietSlog()}); err == nil {
		t.Fatal("invalid rule op should error")
	}
}

// TestWireAlertsFullWiring drives the whole CLI-facing chain once: the
// watch options plumb the timeline/dashboard knobs into the monitor,
// WireAlertEngine hooks the rule engine onto the timeline with a webhook
// notifier, and a single catastrophically corrupted batch fires the
// rule and delivers the event.
func TestWireAlertsFullWiring(t *testing.T) {
	dir := t.TempDir()
	bundle := filepath.Join(dir, "bundle")
	trainSmallBundle(t, bundle)
	watchDir := filepath.Join(dir, "spool")
	if err := mkdirAll(watchDir); err != nil {
		t.Fatal(err)
	}
	mustGenBatch(t, GenBatchOptions{
		Dataset: "income", Corrupt: "scaling", Magnitude: 0.95,
		Rows: 400, OutCSV: filepath.Join(watchDir, "01-broken.csv"), Seed: 2, WithLabels: true,
	})

	mon, run, err := PrepareWatch(WatchOptions{
		BundleDir: bundle, WatchDir: watchDir,
		Interval: 10 * time.Millisecond, Labeled: true, MaxBatches: 1,
		Monitor: monitor.Config{
			TimelineWindow: 1, TimelineCapacity: 16,
			DashboardRefresh: 1234 * time.Millisecond,
		},
		Out: &bytes.Buffer{},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Flag plumbing: the CLI options must land in the monitor.
	if got := mon.DashboardRefresh(); got != 1234*time.Millisecond {
		t.Fatalf("DashboardRefresh = %v, want 1.234s", got)
	}

	var (
		mu       sync.Mutex
		payloads []alert.Event
	)
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ev alert.Event
		if err := json.NewDecoder(r.Body).Decode(&ev); err != nil {
			t.Errorf("bad webhook payload: %v", err)
		}
		mu.Lock()
		payloads = append(payloads, ev)
		mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	defer sink.Close()

	rules := filepath.Join(dir, "rules.json")
	ruleJSON := `{"rules": [{"name": "alarm_on", "series": "alarm", "op": ">=",
		"threshold": 1, "reduce": "max", "for_windows": 1, "severity": "critical"}]}`
	if err := writeFile(rules, ruleJSON); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	engine, closeAlerts, err := WireAlertEngine(mon.Timeline(), AlertOptions{
		RulesPath: rules, WebhookURL: sink.URL,
		Registry: reg, Logger: quietSlog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if engine == nil {
		t.Fatal("rules given, engine expected")
	}

	if err := run(); err != nil {
		t.Fatal(err)
	}
	closeAlerts() // drains the webhook delivery queue

	doc := mon.TimelineDoc()
	if len(doc.Windows) != 1 {
		t.Fatalf("timeline windows = %d, want 1", len(doc.Windows))
	}
	if doc.RefreshMillis != 1234 {
		t.Fatalf("refresh_ms = %d, want 1234", doc.RefreshMillis)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(payloads) != 1 {
		t.Fatalf("webhook payloads = %d, want 1 (%+v)", len(payloads), payloads)
	}
	if payloads[0].Rule != "alarm_on" || payloads[0].State != "firing" || payloads[0].Severity != "critical" {
		t.Fatalf("unexpected event: %+v", payloads[0])
	}

	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `ppm_alerts_total{rule="alarm_on"} 1`) {
		t.Fatalf("alert metrics missing from registry:\n%s", b.String())
	}
}
