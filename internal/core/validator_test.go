package core

import (
	"math/rand"
	"testing"

	"blackboxval/internal/datagen"
	"blackboxval/internal/errorgen"
	"blackboxval/internal/linalg"
	"blackboxval/internal/models"
)

func TestViolationProbabilityCalibratedDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ds := datagen.Income(3000, 21).Balance(rng)
	source, serving := ds.Split(0.7, rng)
	train, test := source.Split(0.6, rng)
	model, err := models.TrainPipeline(train, &models.GBDTClassifier{Seed: 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	val, err := TrainValidator(model, test, ValidatorConfig{
		Generators: errorgen.KnownTabular(),
		Threshold:  0.05,
		Batches:    120,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cleanP := val.ViolationProbability(model.PredictProba(serving))
	heavy := errorgen.Scaling{}.Corrupt(serving, 0.95, rng)
	heavyProba := model.PredictProba(heavy)
	heavyScore := AccuracyScore(heavyProba, heavy.Labels)
	heavyP := val.ViolationProbability(heavyProba)
	if heavyScore < 0.9*val.TestScore() && heavyP <= cleanP {
		t.Fatalf("violation probability not ordered: clean %v vs catastrophic %v (score %v)", cleanP, heavyP, heavyScore)
	}
	if cleanP < 0 || cleanP > 1 || heavyP < 0 || heavyP > 1 {
		t.Fatal("probabilities out of range")
	}
}

func TestValidatorWithoutKSFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ds := datagen.Income(2500, 22).Balance(rng)
	source, serving := ds.Split(0.7, rng)
	train, test := source.Split(0.6, rng)
	model, err := models.TrainPipeline(train, &models.SGDClassifier{Epochs: 12, Seed: 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	val, err := TrainValidator(model, test, ValidatorConfig{
		Generators:        errorgen.KnownTabular(),
		Threshold:         0.1,
		Batches:           100,
		DisableKSFeatures: true,
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Feature vector without KS must be exactly [estimate, margin].
	proba := model.PredictProba(serving)
	if got := len(val.features(NewBatchView(proba))); got != 2 {
		t.Fatalf("feature count without KS = %d, want 2", got)
	}
	withKS, err := TrainValidator(model, test, ValidatorConfig{
		Generators: errorgen.KnownTabular(),
		Threshold:  0.1,
		Batches:    100,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(withKS.features(NewBatchView(proba))); got != 2+2*2 {
		t.Fatalf("feature count with KS = %d, want 6", got)
	}
}

func TestValidatorDegenerateRegimeFallback(t *testing.T) {
	// NoOp generators can never cause a violation: training labels would
	// be all-zero after borderline trimming, triggering the fallback
	// path. The validator must still train and never alarm on clean data.
	rng := rand.New(rand.NewSource(23))
	ds := datagen.Income(1500, 23).Balance(rng)
	source, serving := ds.Split(0.7, rng)
	train, test := source.Split(0.6, rng)
	model, err := models.TrainPipeline(train, &models.SGDClassifier{Epochs: 10, Seed: 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	val, err := TrainValidator(model, test, ValidatorConfig{
		Generators: []errorgen.Generator{errorgen.NoOp{}},
		Threshold:  0.1,
		Batches:    60,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if val.Violation(serving) {
		t.Fatal("validator trained on no-op errors alarmed on clean data")
	}
}

func TestValidatorTrainBalanceNotDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ds := datagen.Heart(2500, 24).Balance(rng)
	source, _ := ds.Split(0.7, rng)
	train, test := source.Split(0.6, rng)
	model, err := models.TrainPipeline(train, &models.SGDClassifier{Epochs: 10, Seed: 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	val, err := TrainValidator(model, test, ValidatorConfig{
		Generators: errorgen.KnownTabular(),
		Threshold:  0.05,
		Batches:    100,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pos, total := val.TrainBalance()
	if total < 50 {
		t.Fatalf("too few usable training batches: %d", total)
	}
	if pos == 0 || pos == total {
		t.Fatalf("degenerate balance %d/%d for error types that clearly break an lr model", pos, total)
	}
}

func TestValidatorFeatureMarginSign(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	ds := datagen.Income(2000, 25).Balance(rng)
	source, serving := ds.Split(0.7, rng)
	train, test := source.Split(0.6, rng)
	model, err := models.TrainPipeline(train, &models.GBDTClassifier{Trees: 20, Seed: 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	val, err := TrainValidator(model, test, ValidatorConfig{
		Generators: errorgen.KnownTabular(),
		Threshold:  0.05,
		Batches:    80,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// On clean serving data the margin feature (estimate - (1-t)*testScore)
	// should be positive; after catastrophic scaling it should drop.
	clean := val.features(NewBatchView(model.PredictProba(serving)))
	if clean[1] <= 0 {
		t.Fatalf("clean margin = %v, want > 0", clean[1])
	}
	heavy := errorgen.Scaling{}.Corrupt(serving, 0.95, rng)
	hf := val.features(NewBatchView(model.PredictProba(heavy)))
	if hf[1] >= clean[1] {
		t.Fatalf("margin did not shrink under catastrophic corruption: %v vs %v", hf[1], clean[1])
	}
}

func TestValidatorFeatureVectorDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	ds := datagen.Income(1200, 26).Balance(rng)
	source, serving := ds.Split(0.7, rng)
	train, test := source.Split(0.6, rng)
	model, err := models.TrainPipeline(train, &models.SGDClassifier{Epochs: 8, Seed: 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	val, err := TrainValidator(model, test, ValidatorConfig{
		Generators: errorgen.KnownTabular(),
		Batches:    60,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	proba := model.PredictProba(serving)
	a := val.features(NewBatchView(proba))
	b := val.features(NewBatchView(proba))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("features not deterministic for identical outputs")
		}
	}
	var m *linalg.Matrix = proba.Clone()
	c := val.features(NewBatchView(m))
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("features differ for cloned outputs")
		}
	}
}
