package core

import (
	"context"
	"testing"

	"blackboxval/internal/errorgen"
	"blackboxval/internal/obs"
)

// TestTrainingStageSpans pins the span tree TrainPredictorCtx and
// TrainValidatorCtx record on the tracer carried by ctx: the stage
// children exist with positive durations, the validator nests its
// internal predictor's subtree, every descendant is bounded by its
// root, and the scoring stages report how many rows they pushed
// through the black box.
func TestTrainingStageSpans(t *testing.T) {
	train, test, _ := incomeSplits(t, 600, 1)
	model := trainBlackBox(t, train)
	gens := errorgen.KnownTabular()

	tr := obs.NewTracer(4)
	ctx := obs.WithTracer(context.Background(), tr)
	if _, err := TrainPredictorCtx(ctx, model, test, PredictorConfig{
		Generators: gens, Repetitions: 4, ForestSizes: []int{10}, Workers: 2, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := TrainValidatorCtx(ctx, model, test, ValidatorConfig{
		Generators: gens, Batches: 24, PredictorRepetitions: 4, Workers: 2, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}

	roots := tr.Traces()
	if len(roots) != 2 || roots[0].Name() != "train_predictor" || roots[1].Name() != "train_validator" {
		t.Fatalf("tracer recorded %d roots, want train_predictor then train_validator", len(roots))
	}
	pred, val := roots[0], roots[1]
	for _, c := range []struct {
		root  *obs.Span
		stage string
	}{
		{pred, "meta_dataset"},
		{pred, "predictor_fit"},
		{val, "validator_batches"},
		{val, "validator_fit"},
		{val, "train_predictor"},
	} {
		sp := c.root.Child(c.stage)
		if sp == nil {
			t.Fatalf("%s has no %s span", c.root.Name(), c.stage)
		}
		if sp.Duration() <= 0 {
			t.Fatalf("%s/%s has duration %v", c.root.Name(), c.stage, sp.Duration())
		}
	}
	for _, stage := range []*obs.Span{pred.Child("meta_dataset"), val.Child("validator_batches")} {
		if rows, ok := stage.Metric("rows_scored"); !ok || rows <= 0 {
			t.Fatalf("%s rows_scored = %v (set %v), want > 0", stage.Name(), rows, ok)
		}
	}

	var bounded func(root, s *obs.Span)
	bounded = func(root, s *obs.Span) {
		for _, c := range s.Children() {
			if c.Duration() > root.Duration() {
				t.Fatalf("%s (%v) exceeds its root %s (%v)", c.Name(), c.Duration(), root.Name(), root.Duration())
			}
			bounded(root, c)
		}
	}
	bounded(pred, pred)
	bounded(val, val)
}
