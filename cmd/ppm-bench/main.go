// Command ppm-bench regenerates the tables and figures of the paper's
// evaluation. Each experiment prints the same rows/series the paper
// reports, as plain text or markdown.
//
// Usage:
//
//	ppm-bench -exp fig2a                     # Figure 2(a): lr prediction error
//	ppm-bench -exp fig5 -scale full          # Figure 5 at full evaluation scale
//	ppm-bench -exp all -format markdown      # everything, as markdown sections
//
// Experiments: fig2a fig2b fig2c fig2d fig3 fig4 val-known fig5 fig6 fig7
// fig2a-auc fig2c-auc gen-matrix ablation-step ablation-regressor
// ablation-size ablation-ks stability all
//
// Infrastructure performance (serving, telemetry, federation, label
// feedback) is measured by perfbench, not here. -trace prints a span
// report of every traced training run; -log-level and -log-format
// control structured logging.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"blackboxval/internal/experiments"
	"blackboxval/internal/obs"
	"blackboxval/internal/report"
)

// printer is implemented by every experiment result.
type printer interface{ Print(w io.Writer) }

func main() {
	exp := flag.String("exp", "all", "experiment id (see package comment) or all")
	scaleName := flag.String("scale", "quick", "experiment scale: quick or full")
	format := flag.String("format", "text", "output format: text or markdown")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "training goroutines (0 = all cores; results identical for any value)")
	trace := flag.Bool("trace", false, "print the per-stage span report of every traced training run to stderr")
	var logCfg obs.LogConfig
	logCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if _, err := obs.SetupLogs("ppm-bench", logCfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	obs.RegisterRuntimeMetrics(obs.Default())

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick or full)\n", *scaleName)
		os.Exit(2)
	}
	scale.Seed = *seed
	scale.Workers = *workers
	if *format != "text" && *format != "markdown" {
		fmt.Fprintf(os.Stderr, "unknown format %q (want text or markdown)\n", *format)
		os.Exit(2)
	}

	if err := run(*exp, scale, *format); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	if *trace {
		fmt.Fprintln(os.Stderr, "=== training stage report ===")
		obs.DefaultTracer().Report(os.Stderr)
	}
}

// runners maps experiment ids to result-producing functions.
func runners(scale experiments.Scale) map[string]func() (any, error) {
	return map[string]func() (any, error){
		"fig2a":              func() (any, error) { return experiments.Figure2(scale, "lr") },
		"fig2b":              func() (any, error) { return experiments.Figure2(scale, "dnn") },
		"fig2c":              func() (any, error) { return experiments.Figure2(scale, "xgb") },
		"fig2d":              func() (any, error) { return experiments.Figure2(scale, "conv") },
		"fig3":               func() (any, error) { return experiments.Figure3(scale) },
		"fig4":               func() (any, error) { return experiments.Figure4(scale) },
		"val-known":          func() (any, error) { return experiments.ValidationKnown(scale) },
		"fig5":               func() (any, error) { return experiments.Figure5(scale) },
		"fig6":               func() (any, error) { return experiments.Figure6(scale) },
		"fig7":               func() (any, error) { return experiments.Figure7(scale) },
		"fig2a-auc":          func() (any, error) { return experiments.Figure2AUC(scale, "lr") },
		"fig2c-auc":          func() (any, error) { return experiments.Figure2AUC(scale, "xgb") },
		"gen-matrix-lr":      func() (any, error) { return experiments.GeneralizationMatrix(scale, "lr") },
		"gen-matrix-xgb":     func() (any, error) { return experiments.GeneralizationMatrix(scale, "xgb") },
		"ablation-step":      func() (any, error) { return experiments.AblationPercentileStep(scale) },
		"ablation-regressor": func() (any, error) { return experiments.AblationRegressor(scale) },
		"ablation-size":      func() (any, error) { return experiments.AblationTrainingSize(scale) },
		"ablation-ks":        func() (any, error) { return experiments.AblationKSFeatures(scale) },
		"stability":          func() (any, error) { return experiments.Stability(scale, "lr", []int64{1, 2, 3}) },
	}
}

// order lists the experiments in the paper's sequence for -exp all.
var order = []string{
	"fig2a", "fig2b", "fig2c", "fig2d", "fig3", "fig4",
	"val-known", "fig5", "fig6", "fig7",
	"fig2a-auc", "fig2c-auc", "gen-matrix-lr", "gen-matrix-xgb",
	"ablation-step", "ablation-regressor", "ablation-size", "ablation-ks",
	"stability",
}

// aliases map legacy/composite ids to runner ids.
var aliases = map[string][]string{
	"gen-matrix": {"gen-matrix-lr", "gen-matrix-xgb"},
}

func run(exp string, scale experiments.Scale, format string) error {
	byID := runners(scale)
	ids := []string{exp}
	if exp == "all" {
		ids = order
	} else if expanded, ok := aliases[exp]; ok {
		ids = expanded
	}
	for _, id := range ids {
		runner, ok := byID[id]
		if !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
		if exp == "all" {
			fmt.Printf("=== %s (scale=%s) ===\n", id, scale.Name)
		}
		start := time.Now()
		result, err := runner()
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if err := emit(result, format); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if vr, ok := result.(*experiments.ValidationResult); ok && format == "text" {
			fmt.Printf("wins by method: %v\n", vr.WinsByMethod())
		}
		if exp == "all" {
			fmt.Printf("--- %s done in %s ---\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

func emit(result any, format string) error {
	if format == "markdown" {
		md, err := report.Markdown(result)
		if err != nil {
			return err
		}
		fmt.Println(md)
		return nil
	}
	p, ok := result.(printer)
	if !ok {
		return fmt.Errorf("result %T has no text printer", result)
	}
	p.Print(os.Stdout)
	return nil
}
