// Command ppm-gateway is the shadow-validation serving proxy: it sits
// between clients and a black box model server (e.g. ppm-serve),
// hardens the path to the backend (timeouts, retries with backoff, a
// circuit breaker that sheds load while the backend is down), and — off
// the hot path — taps every response batch into a trained performance
// predictor so the model's estimated accuracy and alarm state are
// maintained continuously without labels.
//
// Usage:
//
//	ppm-validate train -dataset income -model xgb -out bundle
//	ppm-serve    -dataset income -model xgb -addr 127.0.0.1:8080
//	ppm-gateway  -backend http://127.0.0.1:8080 -bundle bundle -addr 127.0.0.1:8088
//
// Endpoints: POST /predict_proba (proxied, X-Request-ID minted and
// pinned on every response), GET /metrics (Prometheus text), GET
// /status (JSON), GET /healthz (503 while the performance alarm
// fires), GET /monitor/* (HTML drift dashboard plus /monitor/timeline
// JSON, with -bundle), GET /debug/pprof/* and /debug/spans (profiling
// and span traces). Without -bundle the gateway runs as a pure
// resilience proxy and refuses every monitoring-stack flag (-alert-*,
// -incident-*, -label-*, -profile-*, -tsdb-*, -hysteresis, -refresh,
// -timeline-*). -alert-rules loads threshold-for-duration alert
// rules evaluated on every drift-timeline window close and
// -alert-webhook POSTs the firing/resolved events to an HTTP endpoint
// (see ppm-traffic sink). The serving SLO observatory is always on:
// every proxied request is timed per stage into mergeable latency
// histograms with X-Request-ID exemplars, exposed as ppm_serving_*
// metric families, a GET /slo JSON document, latency panels on the
// dashboards and the /federate document, and burn-rate series
// (-slo-budget/-slo-target/-slo-window tune the budget and windows;
// -burn-threshold tunes the built-in fast+slow burn-rate alert pair,
// <=0 disables it). With -bundle the incident flight recorder is
// on: every alert fire transition (or POST /debug/incidents/trigger)
// captures a diagnostic bundle with per-column drift attribution —
// plus a bounded CPU+heap pprof pair (-profile-cpu/-profile-cooldown)
// and the serving SLO snapshot with its slowest-request exemplars — and
// GET /debug/incidents lists the retained ones (-incident-dir persists
// them as JSON; render with ppm-diagnose). With -bundle the label
// feedback loop is also on: POST /labels ingests delayed ground truth
// joined by X-Request-ID, GET /labels/requests serves the active
// (Thompson) labeling worklist, GET /labels/status the Bayesian
// assessment (-label-lag/-label-pending/-label-seed tune it). With
// -bundle, -tsdb-dir persists every closed drift-timeline window to
// an on-disk segment store: GET /monitor/timeline/range serves range
// queries over the durable history, which survives restarts and
// replays offline via ppm-backtest (-tsdb-retention and friends bound
// the footprint). -log-level and -log-format control structured
// logging.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"time"

	"blackboxval/internal/cli"
	"blackboxval/internal/cloud"
	"blackboxval/internal/data"
	"blackboxval/internal/gateway"
	"blackboxval/internal/monitor"
	"blackboxval/internal/obs"
	"blackboxval/internal/obs/alert"
)

func main() {
	fs := flag.CommandLine
	var cfg gateway.Config
	fs.StringVar(&cfg.Backend, "backend", "http://127.0.0.1:8080", "base URL of the model server")
	fs.DurationVar(&cfg.RequestTimeout, "timeout", 10*time.Second, "per-attempt backend timeout")
	fs.IntVar(&cfg.MaxRetries, "retries", 2, "retry attempts after the first try on transient backend failures (0 = none)")
	fs.IntVar(&cfg.ShadowQueueSize, "shadow-queue", 256, "bounded shadow-validation queue size (drop-oldest under pressure)")
	fs.IntVar(&cfg.Breaker.FailureThreshold, "breaker-failures", 5, "consecutive backend failures that open the circuit breaker")
	fs.DurationVar(&cfg.Breaker.Cooldown, "breaker-cooldown", 10*time.Second, "how long the breaker stays open before probing")
	fs.StringVar(&cfg.ReplicaName, "replica", "", "replica name advertised in /federate documents (empty = generated id prefix)")
	fs.DurationVar(&cfg.SLO.Budget, "slo-budget", 0, "per-request latency budget (0 = default 250ms)")
	fs.Float64Var(&cfg.SLO.Target, "slo-target", 0, "SLO target fraction of in-budget requests (0 = default 0.99)")
	fs.IntVar(&cfg.SLO.WindowRequests, "slo-window", 0, "requests per SLO timeline window (0 = default 64)")
	fs.Float64Var(&cfg.TraceSampleRate, "trace-sample", 1, "deterministic head-sampling rate for traces this gateway mints (<=0 or >1 = sample everything); incoming traceparent flags win")
	bundle := fs.String("bundle", "", "bundle directory written by ppm-validate train (empty = proxy only, no shadow validation)")
	addr := fs.String("addr", "127.0.0.1:8088", "gateway listen address")
	drain := fs.Duration("drain", 5*time.Second, "graceful shutdown drain deadline")
	burnThreshold := fs.Float64("burn-threshold", 1.0, "burn-rate alert threshold; fires when BOTH the fast and slow windows burn above it (<=0 disables)")
	var monCfg monitor.Config
	monCfg.RegisterFlags(fs)
	var node cli.NodeOptions
	node.RegisterFlags(fs)
	var profCfg obs.ProfilerConfig
	profCfg.RegisterFlags(fs)
	var tracing cli.TracingOptions
	tracing.RegisterFlags(fs)
	var logCfg obs.LogConfig
	logCfg.RegisterFlags(fs)
	flag.Parse()

	logger, err := obs.SetupLogs("ppm-gateway", logCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *bundle == "" {
		err = cli.RejectNodeFlags(fs)
	}
	if err == nil {
		err = run(cfg, *bundle, *addr, *drain, *burnThreshold, monCfg, node, profCfg, tracing, logger)
	}
	if err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
}

func run(cfg gateway.Config, bundle, addr string, drain time.Duration, burnThreshold float64,
	monCfg monitor.Config, node cli.NodeOptions, profCfg obs.ProfilerConfig,
	tracing cli.TracingOptions, logger *slog.Logger) error {
	// Route the gateway's stdlib-style operational log lines through
	// the structured handler.
	cfg.Logger = obs.StdLogger(logger, slog.LevelInfo)
	if bundle != "" {
		// The black box stays remote: attach the backend client to the
		// locally trained validation artifacts.
		manifest, pred, val, err := cli.LoadServingBundle(bundle, cloud.NewClient(cfg.Backend))
		if err != nil {
			return err
		}
		monCfg.Predictor, monCfg.Validator, monCfg.Threshold = pred, val, manifest.Threshold
		if cfg.Monitor, err = monitor.New(monCfg); err != nil {
			return err
		}
		// Recover the raw serving rows from each proxied request body so
		// the incident recorder's reservoir samples real feature vectors,
		// not just model outputs.
		classes := append([]string(nil), manifest.Classes...)
		cfg.RawDecoder = func(body []byte) (*data.Dataset, error) {
			return cloud.DecodeRequest(body, classes)
		}
		logger.Info("shadow validation on", "dataset", manifest.Dataset, "model", manifest.Model,
			"reference_accuracy", manifest.TestScore, "alarm_line", cfg.Monitor.AlarmLine())
	} else {
		logger.Info("no -bundle given: running as a pure resilience proxy")
	}

	g, err := gateway.New(cfg)
	if err != nil {
		return err
	}
	defer g.Close()
	// Every family — proxy, runtime, tracing and the whole monitoring
	// node — rides the gateway's own /metrics scrape.
	reg := g.Metrics().Registry()
	obs.RegisterRuntimeMetrics(reg)
	// Gateway and shadow-monitor spans share the process default
	// tracer, so one journal carries this process's trace fragments.
	tracing.Registry, tracing.Logger = reg, logger
	closeTracing, err := cli.WireTracing(tracing)
	if err != nil {
		return err
	}
	defer closeTracing()

	var handler http.Handler = g.Handler()
	var notifier alert.Notifier
	if cfg.Monitor != nil {
		// Alert-triggered profiling: every captured bundle embeds a
		// bounded CPU+heap pprof pair (the profiler's cooldown bounds the
		// cost) plus the serving SLO snapshot with its slow-request
		// exemplars. The deferred close runs after the drain in
		// ListenAndServe returns, sealing the durable store on SIGTERM.
		node.Incidents.BundleDir = bundle
		node.Incidents.Profiler = obs.NewProfiler(profCfg)
		node.Incidents.Serving = g.IncidentServing
		node.Registry, node.Logger = reg, logger
		n, closeNode, err := cli.WireNode(cfg.Monitor, node)
		if err != nil {
			return err
		}
		defer closeNode()
		notifier = n.Incidents.AlertNotifier()
		handler = n.Routes(handler, "/monitor")
	}

	// Burn-rate alerting on the serving SLO timeline — on by default,
	// bundle or not: the SRE fast+slow multi-window pair from
	// gateway.BurnRateRules, evaluated on every SLO window close. With
	// an incident recorder wired, a firing rule auto-captures a
	// profiled bundle.
	if burnThreshold > 0 {
		burn, err := alert.New(alert.Config{
			Rules:    gateway.BurnRateRules(burnThreshold),
			Notifier: notifier,
			Logger:   logger,
		})
		if err != nil {
			return err
		}
		burn.RegisterMetrics(reg)
		g.SLOTimeline().OnWindowClose(burn.Evaluate)
		logger.Info("serving SLO observatory on", "slo", fmt.Sprintf("http://%s/slo", addr),
			"burn_threshold", burnThreshold)
	}

	logger.Info("proxying", "from", fmt.Sprintf("http://%s/predict_proba", addr),
		"to", cfg.Backend+"/predict_proba")
	logger.Info("observability", "metrics", fmt.Sprintf("http://%s/metrics", addr),
		"status", "/status", "healthz", "/healthz", "pprof", "/debug/pprof/")
	if err := gateway.ListenAndServe(addr, handler, drain); err != nil {
		return fmt.Errorf("gateway: %w", err)
	}
	return nil
}
