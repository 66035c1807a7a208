// Command ppm-monitor watches a directory for serving batch CSVs,
// evaluates each against a trained bundle (see ppm-validate train) and
// optionally serves the monitoring dashboard over HTTP:
//
//	ppm-monitor -bundle bundle -watch /var/spool/batches -addr 127.0.0.1:8090
//
// Every new .csv file in the watch directory is scored once; GET /
// serves the auto-refreshing HTML drift dashboard (-refresh tunes its
// poll cadence) and /summary, /history, /alarming and /timeline expose
// the monitor state as JSON. -alert-rules loads threshold-for-duration
// alert rules (JSON) evaluated on every timeline window close, and
// -alert-webhook POSTs the firing/resolved events to an HTTP endpoint
// (see ppm-traffic sink). The dashboard address also serves the shared
// observability surface: GET /metrics (Prometheus text exposition with
// the ppm_monitor_*, ppm_alert* and ppm_incident_* families),
// /debug/pprof/*, /debug/spans and /debug/incidents (the incident
// flight recorder: alert fire transitions — or POST
// /debug/incidents/trigger — capture diagnostic bundles with
// per-column drift attribution; -incident-dir persists them as JSON;
// render with ppm-diagnose). The label-feedback endpoints ride the same
// address: POST /labels ingests delayed ground truth joined by
// X-Request-ID, GET /labels/requests serves the active labeling
// worklist and GET /labels/status the Bayesian assessment
// (-label-lag/-label-pending/-label-seed tune it; distinct from the
// -labels bool, which marks CSVs that already carry labels).
// -tsdb-dir persists every closed timeline window to an on-disk
// segment store so history survives restarts: GET /timeline/range
// serves range queries with server-side re-aggregation
// (-tsdb-retention and friends bound the footprint; replay it with
// ppm-backtest). -log-level and -log-format control structured
// logging. SIGINT or SIGTERM stops the watch loop, drains the
// dashboard server and then closes the monitoring stack: queued alert
// webhooks are delivered and the durable store's active segment is
// sealed before the process exits 0.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"blackboxval/internal/cli"
	"blackboxval/internal/gateway"
	"blackboxval/internal/obs"
)

func main() {
	fs := flag.CommandLine
	var watch cli.WatchOptions
	fs.StringVar(&watch.BundleDir, "bundle", "bundle", "bundle directory written by ppm-validate train")
	fs.StringVar(&watch.WatchDir, "watch", ".", "directory polled for serving batch CSVs")
	fs.DurationVar(&watch.Interval, "interval", 2*time.Second, "poll interval")
	fs.BoolVar(&watch.Labeled, "labels", false, "batch CSVs carry a trailing label column")
	fs.IntVar(&watch.MaxBatches, "max-batches", 0, "stop after N batches (0 = run forever)")
	watch.Monitor.RegisterFlags(fs)
	addr := fs.String("addr", "", "dashboard listen address (empty = no dashboard)")
	var node cli.NodeOptions
	node.RegisterFlags(fs)
	var tracing cli.TracingOptions
	tracing.RegisterFlags(fs)
	var logCfg obs.LogConfig
	logCfg.RegisterFlags(fs)
	flag.Parse()

	logger, err := obs.SetupLogs("ppm-monitor", logCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := run(*addr, watch, node, tracing, logger); err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
}

func run(addr string, watch cli.WatchOptions, node cli.NodeOptions, tracing cli.TracingOptions, logger *slog.Logger) error {
	obs.RegisterRuntimeMetrics(obs.Default())
	tracing.Logger = logger
	closeTracing, err := cli.WireTracing(tracing)
	if err != nil {
		return err
	}
	defer closeTracing()
	ctx, stop := gateway.SignalContext()
	defer stop()
	node.Logger = logger
	return cli.ServeWatch(ctx, addr, watch, node)
}
