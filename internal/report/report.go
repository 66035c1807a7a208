// Package report renders experiment results as GitHub-flavored markdown,
// so `ppm-bench -format markdown` regenerates EXPERIMENTS.md-style
// sections directly from a run.
package report

import (
	"fmt"
	"strings"

	"blackboxval/internal/experiments"
	"blackboxval/internal/obs/incident"
)

// Markdown renders any experiment result type as a markdown section.
// Incident bundles render here too, so ppm-diagnose shares the
// experiment pipeline's entry point.
func Markdown(result any) (string, error) {
	switch r := result.(type) {
	case *incident.Bundle:
		return r.Markdown(), nil
	case *experiments.Figure2Result:
		return figure2(r), nil
	case *experiments.Figure3Result:
		return figure3(r), nil
	case *experiments.Figure4Result:
		return figure4(r), nil
	case *experiments.ValidationResult:
		return validation(r), nil
	case *experiments.Figure6Result:
		return figure6(r), nil
	case *experiments.Figure7Result:
		return figure7(r), nil
	case *experiments.GenMatrixResult:
		return genMatrix(r), nil
	case *experiments.AblationResult:
		return ablation(r), nil
	case *experiments.StabilityResult:
		return stability(r), nil
	default:
		return "", fmt.Errorf("report: no markdown renderer for %T", result)
	}
}

// table renders a markdown table from a header and rows.
func table(header []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString("| " + strings.Join(header, " | ") + " |\n")
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

func figure2(r *experiments.Figure2Result) string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Dataset, row.Model, f3(row.TestScore),
			f4(row.P25), f4(row.MedianAE), f4(row.P75),
		})
	}
	return fmt.Sprintf("### Figure 2(%s) — absolute error of score prediction, known errors\n\n%s",
		r.Panel, table([]string{"dataset", "model", "test score", "p25", "median AE", "p75"}, rows))
}

func figure3(r *experiments.Figure3Result) string {
	var rows [][]string
	series := func(name string, points []experiments.Figure3Point) {
		for _, p := range points {
			rows = append(rows, []string{
				name, fmt.Sprintf("%.2f", p.Fraction), f4(p.P5), f4(p.Median), f4(p.P95),
			})
		}
	}
	series("linear", r.Linear)
	series("nonlinear", r.Nonlinear)
	return "### Figure 3 — prediction error vs. fraction of unknown error types\n\n" +
		table([]string{"series", "fraction", "p5", "median", "p95"}, rows)
}

func figure4(r *experiments.Figure4Result) string {
	var b strings.Builder
	b.WriteString("### Figure 4 — sensitivity to the held-out sample size\n\n")
	for _, s := range r.Series {
		var rows [][]string
		for _, p := range s.Points {
			rows = append(rows, []string{
				fmt.Sprintf("%d", p.TestSize), f4(p.P10), f4(p.MAE), f4(p.P90),
			})
		}
		fmt.Fprintf(&b, "**%s in %s (%s)**\n\n%s\n", s.Error, s.Dataset, s.Model,
			table([]string{"|Dtest|", "p10", "MAE", "p90"}, rows))
	}
	return b.String()
}

func validation(r *experiments.ValidationResult) string {
	title := "### §6.2.1 — validation F1, mixtures of known errors"
	if r.Mode == "unknown" {
		title = "### Figure 5 — validation F1 under unknown shifts and errors"
	}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Dataset, row.Model, fmt.Sprintf("%.2f", row.Threshold),
			f3(row.F1["PPM"]), f3(row.F1["BBSE"]), f3(row.F1["BBSE-h"]), f3(row.F1["REL"]),
			fmt.Sprintf("%d/%d", row.Violations, row.Trials),
		})
	}
	wins := r.WinsByMethod()
	return fmt.Sprintf("%s\n\n%s\nWins by method: PPM %d, BBSE %d, BBSE-h %d, REL %d.\n",
		title,
		table([]string{"dataset", "model", "t", "PPM", "BBSE", "BBSE-h", "REL", "violations"}, rows),
		wins["PPM"], wins["BBSE"], wins["BBSE-h"], wins["REL"])
}

func figure6(r *experiments.Figure6Result) string {
	var rows [][]string
	for _, row := range r.Rows {
		rel := f3(row.F1["REL"])
		if !row.RELApplicable {
			rel = "n/a"
		}
		rows = append(rows, []string{
			row.System, row.Dataset, fmt.Sprintf("%.2f", row.Threshold),
			f3(row.F1["PPM"]), f3(row.F1["BBSE"]), f3(row.F1["BBSE-h"]), rel,
		})
	}
	return "### Figure 6 — validation F1 for AutoML-trained black boxes\n\n" +
		table([]string{"system", "dataset", "t", "PPM", "BBSE", "BBSE-h", "REL"}, rows)
}

func figure7(r *experiments.Figure7Result) string {
	var b strings.Builder
	b.WriteString("### Figure 7 — cloud-hosted black box over HTTP\n\n")
	for _, s := range r.Series {
		fmt.Fprintf(&b, "**%s** — MAE %.4f (paper: income 0.0038, heart 0.0101)\n\n", s.Dataset, s.MAE)
		var rows [][]string
		for _, p := range s.Points {
			rows = append(rows, []string{f4(p.TrueScore), f4(p.PredictedScore)})
		}
		b.WriteString(table([]string{"true accuracy", "predicted"}, rows))
		b.WriteString("\n")
	}
	return b.String()
}

func genMatrix(r *experiments.GenMatrixResult) string {
	var rows [][]string
	for _, row := range r.Rows {
		known := "yes"
		if !row.Known {
			known = "no"
		}
		rows = append(rows, []string{row.Error, known, f4(row.MedianAE), f4(row.P90)})
	}
	return fmt.Sprintf("### Error-type generalization matrix (%s on %s)\n\n%s",
		r.Model, r.Dataset,
		table([]string{"error type", "in training set", "median AE", "p90"}, rows))
}

func stability(r *experiments.StabilityResult) string {
	var rows [][]string
	for _, c := range r.Cells {
		rows = append(rows, []string{c.Dataset, c.Model, f4(c.Mean), f4(c.Std)})
	}
	return fmt.Sprintf("### Seed stability of the Figure 2 median AE (%d seeds)\n\n%s",
		len(r.Seeds), table([]string{"dataset", "model", "mean median AE", "std"}, rows))
}

func ablation(r *experiments.AblationResult) string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Variant, f4(row.MAE), f4(row.P90)})
	}
	return fmt.Sprintf("### Ablation — %s\n\n%s", r.Study,
		table([]string{"variant", "MAE", "p90"}, rows))
}
