package core

import (
	"math"
	"math/rand"
	"testing"

	"blackboxval/internal/linalg"
	"blackboxval/internal/stats"
)

// TestBatchViewMatchesUnsorted checks the view against the per-column
// unsorted statistics it replaces: percentile features for several
// steps (exercising the one-entry cache, NaN outputs included) and the
// validator's KS features against a sorted-once reference.
func TestBatchViewMatchesUnsorted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for trial := 0; trial < 100; trial++ {
		rows, cols := 1+rng.Intn(200), 1+rng.Intn(4)
		proba := linalg.NewMatrix(rows, cols)
		for i := range proba.Data {
			proba.Data[i] = math.Round(rng.Float64()*8) / 8
		}
		ref := linalg.NewMatrix(1+rng.Intn(200), cols)
		for i := range ref.Data {
			ref.Data[i] = rng.Float64()
		}
		view := NewBatchView(proba)
		ks := ksFeatures(nil, SortedColumns(ref), view)
		for c := 0; c < cols; c++ {
			res := stats.KolmogorovSmirnov(ref.Col(c), proba.Col(c))
			if !same(ks[2*c:2*c+2], []float64{res.Statistic, res.PValue}) {
				t.Fatalf("trial %d class %d: view KS %v, unsorted %+v", trial, c, ks[2*c:2*c+2], res)
			}
		}

		if trial%2 == 1 {
			proba.Data[rng.Intn(len(proba.Data))] = math.NaN()
			view = NewBatchView(proba)
		}
		for _, step := range []float64{5, 10, 5, 25} {
			grid := stats.PercentileGrid(step)
			var want []float64
			for c := 0; c < cols; c++ {
				want = append(want, stats.Percentiles(proba.Col(c), grid)...)
			}
			if got := view.PredictionStatistics(step); !same(got, want) {
				t.Fatalf("trial %d step %v: view %v, unsorted %v", trial, step, got, want)
			}
		}
	}
}
