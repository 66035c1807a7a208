// Command ppm-traffic drives demo and test workloads against the
// shadow-validation gateway, and doubles as the webhook receiver the
// alerting demo needs.
//
// Send mode replays a synthetic serving workload with an optional
// corruption ramp — leading clean batches, then a linearly growing
// error magnitude — so the drift timeline and alert rules have a
// deterministic scenario to react to:
//
//	ppm-traffic send -target http://127.0.0.1:8088 -dataset income \
//	    -batches 6 -rows 500 -corrupt scaling -max-magnitude 0.95
//
// With -label-lag N the sender also replays delayed ground truth:
// after batch i is served, the true labels of batch i-N are POSTed to
// the target's /labels endpoint (tail flushed at the end), closing the
// label-feedback loop the monitor's Bayesian assessment rides on.
// -label-budget B switches to active mode — only the rows the
// target's GET /labels/requests worklist asks for are labeled, B per
// due batch, under -label-policy ts|uniform. A ramp whose batches all
// fail exits non-zero; partial failures are logged and skipped.
//
// With -rate R the sender switches from the default closed loop
// (each batch waits for the previous response) to open-loop dispatch:
// batches launch at a fixed R per second on their own goroutines and
// latency is measured from each batch's intended start time, the
// coordinated-omission-free convention for load testing a serving
// SLO. Every run — either loop — ends with a latency summary line
// (p50/p99/max and the error count). -rate cannot be combined with
// label replay:
//
//	ppm-traffic send -target http://127.0.0.1:8088 -dataset income \
//	    -batches 120 -rows 100 -rate 40
//
// Sink mode runs a tiny webhook receiver; point -alert-webhook at it
// and poll GET /count (or /events) to see delivered alerts:
//
//	ppm-traffic sink -addr 127.0.0.1:8099
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"

	"blackboxval/internal/cli"
	"blackboxval/internal/gateway"
	"blackboxval/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "send":
		err = runSend(os.Args[2:])
	case "sink":
		err = runSink(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppm-traffic:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  ppm-traffic send -target URL [-targets URL,URL,...] [-dataset income] [-batches 6] [-rows 500]
               [-corrupt NAME] [-corrupt-column COL] [-max-magnitude 0.95]
               [-clean 2] [-interval 0s] [-rate BATCHES_PER_SEC] [-seed 1]
               [-label-lag N] [-label-budget N] [-label-policy ts|uniform]
               [-trace-sample RATE]
  ppm-traffic sink -addr HOST:PORT`)
}

func runSend(args []string) error {
	fs := flag.NewFlagSet("send", flag.ExitOnError)
	target := fs.String("target", "http://127.0.0.1:8088", "gateway base URL")
	targets := fs.String("targets", "", "comma-separated gateway base URLs; batch i goes to target i mod N (overrides -target)")
	dataset := fs.String("dataset", "income", "synthetic dataset (income, heart, bank, tweets)")
	batches := fs.Int("batches", 6, "serving batches to send")
	rows := fs.Int("rows", 500, "rows per batch")
	corrupt := fs.String("corrupt", "", "error generator for the ramp (empty = all clean)")
	column := fs.String("corrupt-column", "", "scale exactly this numeric column instead of the generator's random pick (attribution ground truth)")
	maxMagnitude := fs.Float64("max-magnitude", 0.95, "final corruption magnitude of the ramp")
	clean := fs.Int("clean", 2, "leading clean batches before the ramp")
	interval := fs.Duration("interval", 0, "pause between batches (closed loop)")
	rate := fs.Float64("rate", 0, "open-loop arrival rate in batches/sec (0 = closed loop); latency measured from intended start")
	seed := fs.Int64("seed", 1, "workload seed")
	traceSample := fs.Float64("trace-sample", 1, "deterministic head-sampling rate for the traceparent each batch carries; trace ids derive from -seed and the batch index (<=0 or >1 = sample everything)")
	labelLag := fs.Int("label-lag", -1, "replay true labels N batches behind the ramp (-1 = no label replay)")
	labelBudget := fs.Int("label-budget", 0, "budget mode: label only the rows GET /labels/requests asks for, N per due batch (0 = full batches)")
	labelPolicy := fs.String("label-policy", "ts", "budget-mode worklist policy: ts or uniform")
	fs.Parse(args)
	var targetList []string
	if *targets != "" {
		for _, t := range strings.Split(*targets, ",") {
			if t = strings.TrimSpace(t); t != "" {
				targetList = append(targetList, t)
			}
		}
	}
	opts := cli.TrafficOptions{
		Target: *target, Targets: targetList, Dataset: *dataset, Batches: *batches, Rows: *rows,
		Corrupt: *corrupt, Column: *column, MaxMagnitude: *maxMagnitude,
		CleanBatches: *clean, Interval: *interval, Rate: *rate, Seed: *seed,
		LabelBudget: *labelBudget, LabelPolicy: *labelPolicy,
		TraceSampleRate: *traceSample,
	}
	if *labelLag >= 0 {
		opts.ReplayLabels = true
		opts.LabelLag = *labelLag
	}
	return cli.SendTraffic(opts)
}

func runSink(args []string) error {
	fs := flag.NewFlagSet("sink", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8099", "sink listen address")
	fs.Parse(args)
	obs.RegisterRuntimeMetrics(obs.Default())
	sink := &cli.AlertSink{}
	fmt.Printf("alert sink listening on http://%s (POST /, GET /count, GET /events)\n", *addr)
	srv := &http.Server{Addr: *addr, Handler: sink.Handler(),
		ReadHeaderTimeout: gateway.ReadHeaderTimeout, IdleTimeout: gateway.IdleTimeout}
	return srv.ListenAndServe()
}
