// Package core implements the paper's contribution: learning to validate
// the predictions of black box classifiers on unseen data. A Predictor
// (Algorithms 1 and 2) is a regression model that estimates the black box
// model's score on an unlabeled serving batch from class-wise percentiles
// of its output distribution; a Validator turns this into the binary
// decision "did the score drop more than a threshold t", using a
// gradient-boosted classifier over the percentile features augmented with
// Kolmogorov–Smirnov statistics between test-time and serving-time
// outputs.
package core

import (
	"math"
	"math/rand"

	"blackboxval/internal/data"
	"blackboxval/internal/linalg"
	"blackboxval/internal/stats"
)

// PredictionStatistics computes the paper's prediction_statistics(Ŷ)
// featurizer: for each output dimension (class column) of the probability
// matrix, the percentiles at 0, step, 2*step, ..., 100 — a univariate
// non-parametric estimate of each output distribution. With the default
// step of 5 this yields 21 features per class.
func PredictionStatistics(proba *linalg.Matrix, step float64) []float64 {
	return NewBatchView(proba).PredictionStatistics(step)
}

// BatchView is one batch of model outputs with every class column
// sorted once. Every per-batch statistic of the shadow path reads the
// sorted columns from here instead of re-sorting them: each predictor's
// percentile features, the validator's KS features and the monitor's
// drift KS and median shift. Results are bit-identical to the unsorted
// entry points, which build a view and call the sorted form. A view is
// not safe for concurrent use.
type BatchView struct {
	rows   int
	sorted [][]float64
	// step and stats cache the last percentile-feature vector, so a
	// monitor and a validator whose predictors share the percentile
	// step featurize the batch once.
	step  float64
	stats []float64
}

// NewBatchView sorts each class column of proba once.
func NewBatchView(proba *linalg.Matrix) *BatchView {
	return &BatchView{rows: proba.Rows, sorted: SortedColumns(proba)}
}

// SortedColumns returns every column of m in stats.SortedCopy order.
// Monitors and validators sort their fixed reference outputs with it
// once, when built or loaded.
func SortedColumns(m *linalg.Matrix) [][]float64 {
	cols := make([][]float64, m.Cols)
	for c := range cols {
		cols[c] = m.Col(c)
		stats.Sort(cols[c])
	}
	return cols
}

// Rows returns the number of outputs in the batch.
func (v *BatchView) Rows() int { return v.rows }

// Cols returns the number of class columns.
func (v *BatchView) Cols() int { return len(v.sorted) }

// SortedCol returns class column c in ascending order. Callers must not
// modify it.
func (v *BatchView) SortedCol(c int) []float64 { return v.sorted[c] }

// PredictionStatistics is the package-level PredictionStatistics of the
// viewed batch. The result is shared with later callers asking for the
// same step and must not be modified.
func (v *BatchView) PredictionStatistics(step float64) []float64 {
	if v.stats != nil && v.step == step {
		return v.stats
	}
	grid := stats.PercentileGrid(step)
	out := make([]float64, 0, len(grid)*len(v.sorted))
	for _, col := range v.sorted {
		out = stats.AppendPercentilesSorted(out, col, grid)
	}
	v.step, v.stats = step, out
	return out
}

// SubsampleBatch draws a bootstrap sample (with replacement) of the test
// data with a random size between 50% and 200% of the original and a
// mildly jittered class composition. Both augmentations make the learned
// predictor robust to properties of real serving batches that vary even
// without any corruption: extreme output percentiles (the 0th/100th
// features) systematically widen with batch size, and the whole output
// distribution shifts with the batch's class mix. A predictor trained on
// a single fixed batch misreads either fluctuation as data corruption.
func SubsampleBatch(test *data.Dataset, rng *rand.Rand) *data.Dataset {
	frac := 0.5 + rng.Float64()*1.5
	n := int(frac * float64(test.Len()))
	if n < 1 {
		n = 1
	}

	// Index rows by class and draw each slot from a class chosen under
	// jittered weights (±~20% relative), then uniformly within the class.
	byClass := make([][]int, len(test.Classes))
	for i, y := range test.Labels {
		byClass[y] = append(byClass[y], i)
	}
	weights := make([]float64, len(byClass))
	total := 0.0
	for c, rows := range byClass {
		w := float64(len(rows)) * math.Exp(rng.NormFloat64()*0.1)
		if len(rows) == 0 {
			w = 0
		}
		weights[c] = w
		total += w
	}
	idx := make([]int, n)
	for i := range idx {
		r := rng.Float64() * total
		c := 0
		for ; c < len(weights)-1; c++ {
			r -= weights[c]
			if r < 0 {
				break
			}
		}
		rows := byClass[c]
		idx[i] = rows[rng.Intn(len(rows))]
	}
	return test.SelectRows(idx)
}

// ksFeatures appends, per class column, the Kolmogorov–Smirnov D
// statistic and p-value between the model's sorted outputs on the
// retained test set and on the serving batch — the hypothesis-test
// features the validator adds on top of the percentile features.
func ksFeatures(dst []float64, testSorted [][]float64, serving *BatchView) []float64 {
	for c, ref := range testSorted {
		res := stats.KolmogorovSmirnovSorted(ref, serving.SortedCol(c))
		dst = append(dst, res.Statistic, res.PValue)
	}
	return dst
}
