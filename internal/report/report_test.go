package report

import (
	"strings"
	"testing"

	"blackboxval/internal/experiments"
)

func TestFigure2Markdown(t *testing.T) {
	r := &experiments.Figure2Result{
		Panel: "a",
		Rows: []experiments.Figure2Row{
			{Dataset: "income", Model: "lr", TestScore: 0.8, P25: 0.004, MedianAE: 0.01, P75: 0.02},
		},
	}
	md, err := Markdown(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 2(a)", "| income | lr | 0.800 |", "| dataset |"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestFigure3Markdown(t *testing.T) {
	r := &experiments.Figure3Result{
		Linear:    []experiments.Figure3Point{{Fraction: 0.5, Median: 0.02, P5: 0.001, P95: 0.1}},
		Nonlinear: []experiments.Figure3Point{{Fraction: 0.5, Median: 0.015, P5: 0.001, P95: 0.05}},
	}
	md, err := Markdown(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md, "| linear | 0.50 |") || !strings.Contains(md, "| nonlinear | 0.50 |") {
		t.Fatalf("markdown missing series rows:\n%s", md)
	}
}

func TestValidationMarkdownModes(t *testing.T) {
	base := experiments.ValidationRow{
		Dataset: "bank", Model: "xgb", Threshold: 0.05,
		F1:         map[string]float64{"PPM": 0.9, "BBSE": 0.8, "BBSE-h": 0.7, "REL": 0.6},
		Violations: 10, Trials: 40,
	}
	known := &experiments.ValidationResult{Mode: "known", Rows: []experiments.ValidationRow{base}}
	md, err := Markdown(known)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md, "§6.2.1") || !strings.Contains(md, "Wins by method: PPM 1") {
		t.Fatalf("known-mode markdown wrong:\n%s", md)
	}
	unknown := &experiments.ValidationResult{Mode: "unknown", Rows: []experiments.ValidationRow{base}}
	md, err = Markdown(unknown)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md, "Figure 5") {
		t.Fatalf("unknown-mode markdown wrong:\n%s", md)
	}
}

func TestFigure6MarkdownRELNa(t *testing.T) {
	r := &experiments.Figure6Result{Rows: []experiments.Figure6Row{
		{System: "auto-keras", Dataset: "digits", Threshold: 0.05,
			F1: map[string]float64{"PPM": 0.8, "BBSE": 0.7, "BBSE-h": 0.75}, RELApplicable: false},
	}}
	md, err := Markdown(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md, "| n/a |") {
		t.Fatalf("REL should render n/a on images:\n%s", md)
	}
}

func TestFigure7AndFigure4AndGenMatrixAndAblation(t *testing.T) {
	f7 := &experiments.Figure7Result{Series: []experiments.Figure7Series{
		{Dataset: "income", MAE: 0.018, Points: []experiments.Figure7Point{{TrueScore: 0.8, PredictedScore: 0.79}}},
	}}
	md, err := Markdown(f7)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md, "MAE 0.0180") {
		t.Fatalf("figure 7 markdown wrong:\n%s", md)
	}

	f4r := &experiments.Figure4Result{Series: []experiments.Figure4Series{
		{Dataset: "income", Error: "missing", Model: "lr",
			Points: []experiments.Figure4Point{{TestSize: 100, MAE: 0.02, P10: 0.01, P90: 0.05}}},
	}}
	md, err = Markdown(f4r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md, "**missing in income (lr)**") {
		t.Fatalf("figure 4 markdown wrong:\n%s", md)
	}

	gm := &experiments.GenMatrixResult{Dataset: "income", Model: "lr",
		Rows: []experiments.GenMatrixRow{{Error: "typos", Known: false, MedianAE: 0.01, P90: 0.03}}}
	md, err = Markdown(gm)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md, "| typos | no |") {
		t.Fatalf("gen matrix markdown wrong:\n%s", md)
	}

	ab := &experiments.AblationResult{Study: "percentile-step",
		Rows: []experiments.AblationRow{{Variant: "step=5", MAE: 0.027, P90: 0.05}}}
	md, err = Markdown(ab)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md, "Ablation — percentile-step") {
		t.Fatalf("ablation markdown wrong:\n%s", md)
	}
}

func TestMarkdownUnknownType(t *testing.T) {
	if _, err := Markdown(42); err == nil {
		t.Fatal("unknown type should error")
	}
}

func TestTableShape(t *testing.T) {
	md := table([]string{"a", "b"}, [][]string{{"1", "2"}})
	lines := strings.Split(strings.TrimSpace(md), "\n")
	if len(lines) != 3 {
		t.Fatalf("table has %d lines", len(lines))
	}
	if lines[1] != "| --- | --- |" {
		t.Fatalf("separator = %q", lines[1])
	}
}
