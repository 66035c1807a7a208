// Command ppm-serve trains a black box model on one of the synthetic
// datasets and hosts it behind the HTTP prediction API — the local
// stand-in for a cloud ML service like Google AutoML Tables. Point
// example clients or a performance predictor at the printed address.
//
// Usage:
//
//	ppm-serve -dataset income -model xgb -addr 127.0.0.1:8080
//
// Besides POST /predict_proba the server exposes the shared
// observability surface: GET /metrics (Prometheus text exposition,
// including request counters and latency histograms), /debug/pprof/*
// and /debug/spans. An incoming X-Request-ID (minted by ppm-gateway)
// is echoed on the response and attached to the request span, so one
// correlation id follows a batch end to end. -log-level and
// -log-format control structured logging.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"time"

	"blackboxval"
	"blackboxval/internal/cli"
	"blackboxval/internal/experiments"
	"blackboxval/internal/gateway"
	"blackboxval/internal/obs"
)

func main() {
	dataset := flag.String("dataset", "income", "dataset to train on (income, heart, bank, tweets, digits, fashion)")
	model := flag.String("model", "xgb", "model family (lr, dnn, xgb, conv, automl)")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	rows := flag.Int("rows", 4000, "dataset size")
	seed := flag.Int64("seed", 1, "random seed")
	drain := flag.Duration("drain", 5*time.Second, "graceful shutdown drain deadline")
	var tracing cli.TracingOptions
	tracing.RegisterFlags(flag.CommandLine)
	var logCfg obs.LogConfig
	logCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()

	logger, err := obs.SetupLogs("ppm-serve", logCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	tracing.Logger = logger
	if err := run(*dataset, *model, *addr, *rows, *seed, *drain, tracing, logger); err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
}

func run(dataset, modelName, addr string, rows int, seed int64, drain time.Duration, tracing cli.TracingOptions, logger *slog.Logger) error {
	scale := experiments.Quick
	scale.TabularRows = rows
	scale.ImageRows = rows
	ds, err := scale.GenerateDataset(dataset, seed)
	if err != nil {
		return err
	}
	train, test, _ := experiments.Splits(ds, seed)

	var model blackboxval.Model
	if modelName == "automl" {
		model, err = blackboxval.AutoSklearn(train, blackboxval.AutoMLConfig{Seed: seed})
	} else {
		model, err = scale.TrainModel(modelName, train, seed)
	}
	if err != nil {
		return fmt.Errorf("training %s on %s: %w", modelName, dataset, err)
	}

	acc := blackboxval.AccuracyScore(model.PredictProba(test), test.Labels)
	logger.Info("model trained", "model", modelName, "dataset", dataset, "rows", rows, "accuracy", acc)

	// The prediction API plus the shared observability surface, with
	// request accounting around the model endpoints. The trace
	// middleware extracts the gateway's traceparent so sampled requests
	// get a backend_predict span in the end-to-end waterfall.
	mux := http.NewServeMux()
	mux.Handle("/", obs.Middleware(obs.Default(), "ppm-serve",
		obs.TraceMiddleware(obs.DefaultTracer(), blackboxval.NewCloudServer(model).Handler())))
	obs.RegisterRuntimeMetrics(obs.Default())
	obs.Mount(mux, obs.Default(), obs.DefaultTracer())
	closeTracing, err := cli.WireTracing(tracing)
	if err != nil {
		return err
	}
	defer closeTracing()

	logger.Info("serving", "predict", fmt.Sprintf("http://%s/predict_proba", addr),
		"metrics", fmt.Sprintf("http://%s/metrics", addr),
		"pprof", fmt.Sprintf("http://%s/debug/pprof/", addr))
	// Graceful shutdown on SIGINT/SIGTERM: stop accepting, drain
	// in-flight predictions, then exit (shared by every daemon).
	return gateway.ListenAndServe(addr, mux, drain)
}
