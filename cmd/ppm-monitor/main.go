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
// logging.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"blackboxval/internal/cli"
	"blackboxval/internal/gateway"
	"blackboxval/internal/obs"
	"blackboxval/internal/obs/incident"
)

func main() {
	bundle := flag.String("bundle", "bundle", "bundle directory written by ppm-validate train")
	watch := flag.String("watch", ".", "directory polled for serving batch CSVs")
	addr := flag.String("addr", "", "dashboard listen address (empty = no dashboard)")
	interval := flag.Duration("interval", 2*time.Second, "poll interval")
	hysteresis := flag.Int("hysteresis", 1, "consecutive violating batches before alarming")
	labeled := flag.Bool("labels", false, "batch CSVs carry a trailing label column")
	maxBatches := flag.Int("max-batches", 0, "stop after N batches (0 = run forever)")
	refresh := flag.Duration("refresh", 5*time.Second, "dashboard auto-refresh interval (<=0 disables)")
	timelineWindow := flag.Int("timeline-window", 1, "batches aggregated into one drift-timeline window")
	timelineCapacity := flag.Int("timeline-capacity", 128, "retained drift-timeline windows")
	alertRules := flag.String("alert-rules", "", "JSON alert rule file (empty = alerting off)")
	alertWebhook := flag.String("alert-webhook", "", "webhook URL receiving alert events as JSON POSTs")
	incidentDir := flag.String("incident-dir", "", "directory retaining incident bundles as JSON (empty = in-memory only)")
	incidentRows := flag.Int("incident-rows", 0, "incident reservoir size in raw serving rows (0 = default 512)")
	incidentMax := flag.Int("incident-max", 0, "retained incident bundles (0 = default 16)")
	incidentSeed := flag.Int64("incident-seed", 0, "incident reservoir sampling seed (0 = default 1)")
	labelLag := flag.Int64("label-lag", 0, "label join horizon in drift-timeline windows (0 = default 64)")
	labelPending := flag.Int("label-pending", 0, "served batches retained awaiting labels (0 = default 512)")
	labelSeed := flag.Int64("label-seed", 0, "active-sampling RNG seed (0 = default 1)")
	traceDir := flag.String("trace-dir", "", "span journal directory for cross-process trace stitching (empty = in-memory ring only)")
	var tsdbFlags cli.TSDBFlags
	tsdbFlags.RegisterFlags(flag.CommandLine)
	var logCfg obs.LogConfig
	logCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()

	logger, err := obs.SetupLogs("ppm-monitor", logCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	dashRefresh := *refresh
	if dashRefresh <= 0 {
		dashRefresh = -1 // monitor treats negative as "auto-refresh off"
	}
	mon, run, err := cli.PrepareWatch(cli.WatchOptions{
		BundleDir: *bundle, WatchDir: *watch, Interval: *interval,
		Hysteresis: *hysteresis, Labeled: *labeled, MaxBatches: *maxBatches,
		TimelineWindow: *timelineWindow, TimelineCapacity: *timelineCapacity,
		DashboardRefresh: dashRefresh,
	})
	if err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
	mon.RegisterMetrics(obs.Default())
	obs.RegisterRuntimeMetrics(obs.Default())
	closeTracing, err := cli.WireTracing(cli.TracingOptions{Dir: *traceDir, Logger: logger})
	if err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
	defer closeTracing()
	lstore, err := cli.WireLabels(mon, cli.LabelOptions{
		MaxLagWindows: *labelLag,
		MaxPending:    *labelPending,
		Seed:          *labelSeed,
		Logger:        logger,
	})
	if err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
	rec, err := cli.WireIncidents(mon, cli.IncidentOptions{
		BundleDir:     *bundle,
		Dir:           *incidentDir,
		MaxBundles:    *incidentMax,
		ReservoirRows: *incidentRows,
		Seed:          *incidentSeed,
		Labels:        lstore,
		Logger:        logger,
	})
	if err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
	_, closeAlerts, err := cli.WireAlerts(mon, cli.AlertOptions{
		RulesPath: *alertRules, WebhookURL: *alertWebhook,
		Notifier: rec.AlertNotifier(), Logger: logger,
	})
	if err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
	defer closeAlerts()
	if *alertRules != "" {
		logger.Info("alerting on", "rules", *alertRules, "webhook", *alertWebhook)
	}
	tsdbDB, closeTSDB, err := cli.WireTSDB(mon.Timeline(), tsdbFlags.Options(obs.Default(), logger))
	if err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
	defer closeTSDB()
	if tsdbDB != nil {
		logger.Info("durable timeline on", "dir", tsdbFlags.Dir, "retention", tsdbFlags.Retention)
	}
	if *addr != "" {
		go func() {
			// The dashboard (HTML at /, JSON endpoints beside it) shares
			// the mux with the process metrics, profiling and span traces.
			mux := http.NewServeMux()
			mux.Handle("/", mon.Handler())
			mux.Handle(incident.MountPath, rec.Handler())
			mux.Handle(incident.MountPath+"/", rec.Handler())
			mux.Handle("/labels", lstore.Handler())
			mux.Handle("/labels/", lstore.Handler())
			if tsdbDB != nil {
				// Durable history beside the live ring: the exact path wins
				// over the monitor's "/" catch-all.
				mux.Handle("/timeline/range", tsdbDB.RangeHandler())
			}
			obs.Mount(mux, obs.Default(), obs.DefaultTracer())
			logger.Info("dashboard up",
				"dashboard", fmt.Sprintf("http://%s/", *addr),
				"timeline", fmt.Sprintf("http://%s/timeline", *addr),
				"metrics", fmt.Sprintf("http://%s/metrics", *addr),
				"pprof", fmt.Sprintf("http://%s/debug/pprof/", *addr))
			srv := &http.Server{Addr: *addr, Handler: mux,
				ReadHeaderTimeout: gateway.ReadHeaderTimeout, IdleTimeout: gateway.IdleTimeout}
			if err := srv.ListenAndServe(); err != nil {
				logger.Error("dashboard server failed", "err", err)
				os.Exit(1)
			}
		}()
	}
	if err := run(); err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
}
