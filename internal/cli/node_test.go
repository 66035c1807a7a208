package cli

import (
	"bytes"
	"context"
	"flag"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"blackboxval/internal/gateway"
	"blackboxval/internal/monitor"
	"blackboxval/internal/obs"
	"blackboxval/internal/obs/tsdb"
)

// syncBuffer is a goroutine-safe io.Writer for the watch loop's log.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func quietStd() *log.Logger { return log.New(io.Discard, "", 0) }

// freeAddr reserves a loopback port and releases it for a server to
// take.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// nodeFixture trains a small bundle and stages n labeled serving
// batches in a watch directory.
func nodeFixture(t *testing.T, n int) (bundle, watchDir, rules string) {
	t.Helper()
	dir := t.TempDir()
	bundle = filepath.Join(dir, "bundle")
	trainSmallBundle(t, bundle)
	watchDir = filepath.Join(dir, "spool")
	if err := mkdirAll(watchDir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		mustGenBatch(t, GenBatchOptions{
			Dataset: "income", Rows: 200, Seed: int64(i + 1), WithLabels: true,
			OutCSV: filepath.Join(watchDir, string(rune('a'+i))+".csv"),
		})
	}
	rules = filepath.Join(dir, "rules.json")
	if err := writeFile(rules, `{"rules": [{"name": "alarm_on", "series": "alarm", "op": ">=",
		"threshold": 1, "reduce": "max", "for_windows": 1}]}`); err != nil {
		t.Fatal(err)
	}
	return bundle, watchDir, rules
}

// waitBatches polls the watch log until n batches were scored.
func waitBatches(t *testing.T, out *syncBuffer, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for strings.Count(out.String(), " rows, estimate ") < n {
		if time.Now().After(deadline) {
			t.Fatalf("watch loop scored fewer than %d batches:\n%s", n, out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// checkRoutes GETs every path on base and fails on a 404, then checks
// the /metrics scrape carries the whole node and lints clean.
func checkRoutes(t *testing.T, base string, paths []string) {
	t.Helper()
	for _, p := range paths {
		resp, err := http.Get(base + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			t.Errorf("GET %s: 404, want a mounted route", p)
		}
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	expo := string(body)
	for _, fam := range []string{"ppm_monitor_", "ppm_labels_", "ppm_incident_", "ppm_alert", "ppm_tsdb_"} {
		if !strings.Contains(expo, "# TYPE "+fam) {
			t.Errorf("/metrics lacks the %s* families", fam)
		}
	}
	for _, err := range obs.Lint(expo) {
		t.Errorf("lint: %v", err)
	}
}

// nodePaths are the routes the node mounts, relative to where the
// monitor's dashboard lives (prefix) for the durable range endpoint.
func nodePaths(prefix string) []string {
	return []string{
		"/labels", "/labels/status", "/labels/requests",
		"/debug/incidents", "/debug/incidents/view",
		prefix + "/timeline/range?from=0&to=0",
	}
}

// TestNodeRoutes builds the gateway-shaped and the monitor-shaped node
// from one small bundle and checks the route table each serves.
func TestNodeRoutes(t *testing.T) {
	bundle, watchDir, rules := nodeFixture(t, 1)

	t.Run("gateway", func(t *testing.T) {
		manifest, _, pred, val, err := LoadBundle(bundle)
		if err != nil {
			t.Fatal(err)
		}
		mon, err := monitor.New(monitor.Config{Predictor: pred, Validator: val, Threshold: manifest.Threshold})
		if err != nil {
			t.Fatal(err)
		}
		backend := httptest.NewServer(http.NotFoundHandler())
		defer backend.Close()
		g, err := gateway.New(gateway.Config{Backend: backend.URL, Monitor: mon, Logger: quietStd()})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		n, closeNode, err := WireNode(mon, NodeOptions{
			Incidents: IncidentOptions{BundleDir: bundle},
			Alerts:    AlertOptions{RulesPath: rules},
			TSDB:      TSDBOptions{Dir: t.TempDir()},
			Registry:  g.Metrics().Registry(),
			Logger:    quietSlog(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer closeNode()
		if n.Alerts == nil || n.TSDB == nil {
			t.Fatal("rules and a store dir given, engine and store expected")
		}
		srv := httptest.NewServer(n.Routes(g.Handler(), "/monitor"))
		defer srv.Close()
		ds, err := ReadBatchCSV(filepath.Join(watchDir, "a.csv"), manifest, true)
		if err != nil {
			t.Fatal(err)
		}
		mon.Observe(ds)
		checkRoutes(t, srv.URL, append(nodePaths("/monitor"),
			"/monitor/", "/monitor/timeline", "/federate", "/status", "/healthz", "/slo",
			"/debug/pprof/", "/debug/spans", "/debug/traces"))
	})

	t.Run("monitor", func(t *testing.T) {
		addr := freeAddr(t)
		out := &syncBuffer{}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, 1)
		go func() {
			done <- ServeWatch(ctx, addr, WatchOptions{
				BundleDir: bundle, WatchDir: watchDir, Labeled: true,
				Interval: 10 * time.Millisecond, Out: out,
			}, NodeOptions{
				Alerts:   AlertOptions{RulesPath: rules},
				TSDB:     TSDBOptions{Dir: t.TempDir()},
				Registry: obs.NewRegistry(),
				Logger:   quietSlog(),
			})
		}()
		waitBatches(t, out, 1)
		base := "http://" + addr
		if err := waitUp(base + "/healthz"); err != nil {
			t.Fatal(err)
		}
		checkRoutes(t, base, append(nodePaths(""),
			"/", "/timeline", "/summary", "/history", "/alarming", "/healthz",
			"/debug/pprof/", "/debug/spans", "/debug/traces"))
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("ServeWatch after cancel: %v", err)
		}
	})
}

func waitUp(url string) error {
	var err error
	for i := 0; i < 500; i++ {
		var resp *http.Response
		if resp, err = http.Get(url); err == nil {
			resp.Body.Close()
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return err
}

// TestNodeDrainsOnCancel cancels the serve context mid-watch (what
// SIGTERM does to ppm-monitor): the watch loop must return, the server
// drain, and the node's closers run before ServeWatch returns — the
// alert webhook queue is delivered (the sink answers slowly, so only a
// drain sees the event in time) and a reopened durable store holds
// every closed window with no torn segment.
func TestNodeDrainsOnCancel(t *testing.T) {
	const batches = 3
	bundle, watchDir, _ := nodeFixture(t, batches)
	rules := filepath.Join(t.TempDir(), "always.json")
	if err := writeFile(rules, `{"rules": [{"name": "always", "series": "estimate", "op": ">=",
		"threshold": 0, "reduce": "max", "for_windows": 1}]}`); err != nil {
		t.Fatal(err)
	}
	var (
		mu     sync.Mutex
		events int
	)
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Second)
		mu.Lock()
		events++
		mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	defer sink.Close()
	storeDir := t.TempDir()
	out := &syncBuffer{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- ServeWatch(ctx, freeAddr(t), WatchOptions{
			BundleDir: bundle, WatchDir: watchDir, Labeled: true,
			Interval: 10 * time.Millisecond, Out: out,
		}, NodeOptions{
			Alerts:   AlertOptions{RulesPath: rules, WebhookURL: sink.URL},
			TSDB:     TSDBOptions{Dir: storeDir},
			Registry: obs.NewRegistry(),
			Logger:   quietSlog(),
		})
	}()
	waitBatches(t, out, batches)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeWatch after cancel: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch loop did not return after cancel")
	}
	mu.Lock()
	got := events
	mu.Unlock()
	if got != 1 {
		t.Fatalf("webhook sink holds %d events when ServeWatch returns, want the 1 firing event", got)
	}

	db, err := tsdb.OpenReadOnly(tsdb.Config{Dir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(db.Entries(0, batches-1)); got != batches {
		t.Fatalf("reopened store holds %d windows, want %d", got, batches)
	}
	if c := db.CorruptSegments(); c != 0 {
		t.Fatalf("reopened store has %d corrupt segments", c)
	}
}

// TestNodeRejectsFlagsWithoutMonitor pins the gateway's proxy-only
// guard: any monitoring-stack flag set without a monitor is an error
// naming it, while process-level flags pass.
func TestNodeRejectsFlagsWithoutMonitor(t *testing.T) {
	parse := func(args ...string) *flag.FlagSet {
		fs := flag.NewFlagSet("gw", flag.ContinueOnError)
		new(monitor.Config).RegisterFlags(fs)
		new(NodeOptions).RegisterFlags(fs)
		new(obs.ProfilerConfig).RegisterFlags(fs)
		new(TracingOptions).RegisterFlags(fs)
		fs.String("addr", "", "")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	if err := RejectNodeFlags(parse("-addr", "x", "-trace-dir", "t")); err != nil {
		t.Fatalf("process-level flags rejected: %v", err)
	}
	for _, args := range [][]string{
		{"-alert-rules", "r.json"}, {"-alert-webhook", "http://x"},
		{"-incident-dir", "d"}, {"-incident-rows", "8"}, {"-incident-max", "2"}, {"-incident-seed", "3"},
		{"-label-lag", "2"}, {"-label-pending", "9"}, {"-label-seed", "4"},
		{"-profile-cpu", "1s"}, {"-profile-cooldown", "1s"},
		{"-tsdb-dir", "d"}, {"-tsdb-downsample", "1"},
		{"-hysteresis", "2"}, {"-refresh", "0"}, {"-timeline-window", "2"},
	} {
		err := RejectNodeFlags(parse(args...))
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("%v without a monitor: err = %v, want one naming %s", args, err, args[0])
		}
	}
	err := RejectNodeFlags(parse("-label-seed", "1", "-alert-webhook", "http://x"))
	if err == nil || !strings.Contains(err.Error(), "-alert-webhook, -label-seed need -bundle") {
		t.Fatalf("two flags: err = %v", err)
	}
}
