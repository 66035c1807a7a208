// Command ppm-aggregate merges N monitoring replicas into one
// fleet-wide drift timeline. Each replica (ppm-gateway or a future
// sharded monitor) serves its mergeable drift state — window aggregates
// with exact sums and deterministic quantile sketches, plus reference
// distributions — at GET /federate; the aggregator scrapes them on an
// interval, aligns windows by index, merges them in replica order and
// runs the standard alert engine, dashboard and incident capture over
// the merged view:
//
//	ppm-aggregate -replicas a=http://127.0.0.1:8088,b=http://127.0.0.1:8089 \
//	    -addr 127.0.0.1:8090 -alert-rules rules.json
//
// With batches dispatched round-robin across the replicas (ppm-traffic
// send -targets), the merged timeline and its alert decisions are
// bit-equal to what a single node observing the union stream would
// produce (DESIGN.md §13). A replica that stops answering degrades to
// the ppm_federate_stale_shards gauge — visible on the dashboard and
// at /metrics — rather than poisoning the fleet view.
//
// GET / serves the fleet dashboard; /timeline, /federate, /status,
// /healthz, /metrics, /debug/pprof/* and /debug/spans sit beside it.
// -tsdb-dir persists every merged fleet window to an on-disk segment
// store (GET /timeline/range serves the durable history; see
// ppm-backtest).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"blackboxval/internal/cli"
	"blackboxval/internal/gateway"
	"blackboxval/internal/obs"
)

func main() {
	replicas := flag.String("replicas", "", "comma-separated name=url replica list (required); bare URLs get shard-N names, /federate is appended when the URL has no path")
	addr := flag.String("addr", "127.0.0.1:8090", "fleet dashboard listen address")
	interval := flag.Duration("interval", 2*time.Second, "scrape interval")
	timeout := flag.Duration("replica-timeout", time.Second, "per-replica scrape timeout")
	staleAfter := flag.Duration("stale-after", 0, "replica staleness bound (0 = 5x interval)")
	capacity := flag.Int("capacity", 128, "retained merged fleet windows")
	refresh := flag.Duration("refresh", 2*time.Second, "dashboard auto-refresh interval (<=0 disables)")
	alertRules := flag.String("alert-rules", "", "JSON alert rule file evaluated on merged fleet windows (empty = alerting off)")
	alertWebhook := flag.String("alert-webhook", "", "webhook URL receiving fleet alert events as JSON POSTs")
	incidentDir := flag.String("incident-dir", "", "directory retaining fleet incident files (empty = capture off)")
	incidentMax := flag.Int("incident-max", 0, "retained fleet incident files (0 = default 16)")
	traceDir := flag.String("trace-dir", "", "span journal directory for cross-process trace stitching (empty = in-memory ring only)")
	traceSample := flag.Float64("trace-sample", 1, "deterministic head-sampling rate for federate_scrape traces (<=0 or >1 = sample everything)")
	var tsdbFlags cli.TSDBFlags
	tsdbFlags.RegisterFlags(flag.CommandLine)
	var logCfg obs.LogConfig
	logCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()

	logger, err := obs.SetupLogs("ppm-aggregate", logCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	refreshMillis := int(refresh.Milliseconds())
	if refreshMillis <= 0 {
		refreshMillis = -1
	}
	agg, engine, closeAlerts, err := cli.WireFederation(cli.FederationOptions{
		Replicas:        strings.Split(*replicas, ","),
		Interval:        *interval,
		Timeout:         *timeout,
		StaleAfter:      *staleAfter,
		Capacity:        *capacity,
		RefreshMillis:   refreshMillis,
		AlertRulesPath:  *alertRules,
		AlertWebhookURL: *alertWebhook,
		IncidentDir:     *incidentDir,
		IncidentMax:     *incidentMax,
		TraceSampleRate: *traceSample,
		Logger:          logger,
	})
	if err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
	defer closeAlerts()
	obs.RegisterRuntimeMetrics(obs.Default())
	closeTracing, err := cli.WireTracing(cli.TracingOptions{Dir: *traceDir, Logger: logger})
	if err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
	defer closeTracing()
	if engine != nil {
		logger.Info("fleet alerting on", "rules", *alertRules, "webhook", *alertWebhook)
	}
	// The merged fleet windows persist the same way a single monitor's
	// do: the aggregator is a WindowSource, so the durable store sees
	// each fleet window exactly once, at close.
	tsdbDB, closeTSDB, err := cli.WireTSDB(agg, tsdbFlags.Options(obs.Default(), logger))
	if err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
	defer closeTSDB()
	if tsdbDB != nil {
		logger.Info("durable fleet timeline on", "dir", tsdbFlags.Dir, "retention", tsdbFlags.Retention)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go agg.Run(ctx)

	mux := http.NewServeMux()
	mux.Handle("/", agg.Handler())
	if tsdbDB != nil {
		mux.Handle("/timeline/range", tsdbDB.RangeHandler())
	}
	obs.Mount(mux, obs.Default(), obs.DefaultTracer())
	srv := &http.Server{Addr: *addr, Handler: mux,
		ReadHeaderTimeout: gateway.ReadHeaderTimeout, IdleTimeout: gateway.IdleTimeout}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()
	logger.Info("fleet aggregator up",
		"dashboard", fmt.Sprintf("http://%s/", *addr),
		"timeline", fmt.Sprintf("http://%s/timeline", *addr),
		"federate", fmt.Sprintf("http://%s/federate", *addr),
		"metrics", fmt.Sprintf("http://%s/metrics", *addr))
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		logger.Error("fleet server failed", "err", err)
		os.Exit(1)
	}
}
