package core

import (
	"math"
	"math/rand"
	"testing"

	"blackboxval/internal/errorgen"
	"blackboxval/internal/linalg"
)

// streamedEstimate feeds proba to the predictor the way a row stream does:
// each row arrives in one reused slice, is copied into a window buffer, and
// the full window is featurized and scored through EstimateFromFeatures.
func streamedEstimate(pred *Predictor, proba *linalg.Matrix) float64 {
	window := linalg.NewMatrix(proba.Rows, proba.Cols)
	row := make([]float64, proba.Cols)
	for i := 0; i < proba.Rows; i++ {
		copy(row, proba.Row(i))
		copy(window.Row(i), row)
		for j := range row {
			row[j] = -1
		}
	}
	return pred.EstimateFromFeatures(PredictionStatistics(window, pred.cfg.PercentileStep))
}

func TestPredictorStreamingEstimateMatchesBatch(t *testing.T) {
	train, test, serving := incomeSplits(t, 2500, 52)
	model := trainBlackBox(t, train)
	pred, err := TrainPredictor(model, test, PredictorConfig{
		Generators:  errorgen.KnownTabular(),
		Repetitions: 20,
		ForestSizes: []int{30},
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	proba := model.PredictProba(serving)
	batchEst := pred.EstimateFromProba(proba)
	streamEst := streamedEstimate(pred, proba)
	if math.Float64bits(streamEst) != math.Float64bits(batchEst) {
		t.Fatalf("stream estimate %v differs from batch estimate %v", streamEst, batchEst)
	}
}

func TestPredictorStreamingDetectsCorruption(t *testing.T) {
	train, test, serving := incomeSplits(t, 2500, 53)
	model := trainBlackBox(t, train)
	pred, err := TrainPredictor(model, test, PredictorConfig{
		Generators:  errorgen.KnownTabular(),
		Repetitions: 20,
		ForestSizes: []int{30},
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(54))
	broken := errorgen.Scaling{}.Corrupt(serving, 0.95, rng)
	proba := model.PredictProba(broken)
	truth := AccuracyScore(proba, broken.Labels)

	streamEst := streamedEstimate(pred, proba)
	if truth < pred.TestScore()-0.1 && streamEst > pred.TestScore()-0.05 {
		t.Fatalf("streaming estimate %v missed a drop to %v", streamEst, truth)
	}
	if batchEst := pred.EstimateFromProba(proba); math.Float64bits(streamEst) != math.Float64bits(batchEst) {
		t.Fatalf("stream estimate %v differs from batch estimate %v", streamEst, batchEst)
	}
}
