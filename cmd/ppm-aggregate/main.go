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
// GET / serves the fleet dashboard (the replica dashboard page with the
// shard table on); /timeline, /federate, /status, /healthz, /metrics,
// /debug/pprof/* and /debug/spans sit beside it.
// -tsdb-dir persists every merged fleet window to an on-disk segment
// store (GET /timeline/range serves the durable history; see
// ppm-backtest). SIGINT or SIGTERM drains the server, then seals the
// store and flushes queued alert webhooks.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	"blackboxval/internal/cli"
	"blackboxval/internal/gateway"
	"blackboxval/internal/obs"
)

func main() {
	fs := flag.CommandLine
	var fedOpts cli.FederationOptions
	replicas := fs.String("replicas", "", "comma-separated name=url replica list (required); bare URLs get shard-N names, /federate is appended when the URL has no path")
	addr := fs.String("addr", "127.0.0.1:8090", "fleet dashboard listen address")
	fs.DurationVar(&fedOpts.Interval, "interval", 2*time.Second, "scrape interval")
	fs.DurationVar(&fedOpts.Timeout, "replica-timeout", time.Second, "per-replica scrape timeout")
	fs.DurationVar(&fedOpts.StaleAfter, "stale-after", 0, "replica staleness bound (0 = 5x interval)")
	fs.IntVar(&fedOpts.Capacity, "capacity", 128, "retained merged fleet windows")
	refresh := fs.Duration("refresh", 2*time.Second, "dashboard auto-refresh interval (<=0 disables)")
	fs.StringVar(&fedOpts.AlertRulesPath, "alert-rules", "", "JSON alert rule file evaluated on merged fleet windows (empty = alerting off)")
	fs.StringVar(&fedOpts.AlertWebhookURL, "alert-webhook", "", "webhook URL receiving fleet alert events as JSON POSTs")
	fs.StringVar(&fedOpts.IncidentDir, "incident-dir", "", "directory retaining fleet incident files (empty = capture off)")
	fs.IntVar(&fedOpts.IncidentMax, "incident-max", 0, "retained fleet incident files (0 = default 16)")
	fs.Float64Var(&fedOpts.TraceSampleRate, "trace-sample", 1, "deterministic head-sampling rate for federate_scrape traces (<=0 or >1 = sample everything)")
	var tracing cli.TracingOptions
	tracing.RegisterFlags(fs)
	var tsdbOpts cli.TSDBOptions
	tsdbOpts.RegisterFlags(fs)
	var logCfg obs.LogConfig
	logCfg.RegisterFlags(fs)
	flag.Parse()

	logger, err := obs.SetupLogs("ppm-aggregate", logCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fedOpts.Replicas = strings.Split(*replicas, ",")
	fedOpts.RefreshMillis = int(refresh.Milliseconds())
	if fedOpts.RefreshMillis <= 0 {
		fedOpts.RefreshMillis = -1
	}
	if err := run(*addr, fedOpts, tracing, tsdbOpts, logger); err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
}

func run(addr string, fedOpts cli.FederationOptions, tracing cli.TracingOptions, tsdbOpts cli.TSDBOptions, logger *slog.Logger) error {
	fedOpts.Logger = logger
	agg, engine, closeAlerts, err := cli.WireFederation(fedOpts)
	if err != nil {
		return err
	}
	defer closeAlerts()
	if engine != nil {
		logger.Info("fleet alerting on", "rules", fedOpts.AlertRulesPath, "webhook", fedOpts.AlertWebhookURL)
	}
	obs.RegisterRuntimeMetrics(obs.Default())
	tracing.Logger = logger
	closeTracing, err := cli.WireTracing(tracing)
	if err != nil {
		return err
	}
	defer closeTracing()
	// The merged fleet windows persist the same way a single monitor's
	// do: the aggregator is a WindowSource, so the durable store sees
	// each fleet window exactly once, at close.
	tsdbOpts.Logger = logger
	tsdbDB, closeTSDB, err := cli.WireTSDB(agg, tsdbOpts)
	if err != nil {
		return err
	}
	defer closeTSDB()
	if tsdbDB != nil {
		logger.Info("durable fleet timeline on", "dir", tsdbOpts.Dir, "retention", tsdbOpts.Retention)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go agg.Run(ctx)

	mux := http.NewServeMux()
	mux.Handle("/", agg.Handler())
	if tsdbDB != nil {
		mux.Handle("/timeline/range", tsdbDB.RangeHandler())
	}
	obs.Mount(mux, obs.Default(), obs.DefaultTracer())
	logger.Info("fleet aggregator up",
		"dashboard", fmt.Sprintf("http://%s/", addr),
		"timeline", fmt.Sprintf("http://%s/timeline", addr),
		"federate", fmt.Sprintf("http://%s/federate", addr),
		"metrics", fmt.Sprintf("http://%s/metrics", addr))
	if err := gateway.ListenAndServe(addr, mux, 3*time.Second); err != nil {
		return fmt.Errorf("fleet server: %w", err)
	}
	return nil
}
