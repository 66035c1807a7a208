// Package baselines implements the three task-independent dataset shift
// detection methods the paper compares against (Section 6.2):
//
//   - REL: univariate shift tests on the raw input columns
//     (Kolmogorov–Smirnov for numeric, chi-squared for categorical),
//     with Bonferroni correction across tests.
//   - BBSE: black box shift detection on assigned class probabilities
//     (Lipton et al.), a KS test on each softmax output dimension.
//   - BBSEh: black box shift detection on hard predictions (Rabanser et
//     al.), a chi-squared test on predicted class counts.
//
// All three follow the paper's protocol of comparing the test p-value to
// 0.05. They answer the same question as core.Validator — "should we
// raise an alarm on this serving batch?" — but without any notion of how
// much the score actually drops.
package baselines

import (
	"math"
	"sort"

	"blackboxval/internal/data"
	"blackboxval/internal/frame"
	"blackboxval/internal/linalg"
	"blackboxval/internal/stats"
)

// Alpha is the significance level used for all baseline tests, following
// the paper's protocol.
const Alpha = 0.05

// Detector raises alarms on serving batches it considers shifted.
type Detector interface {
	// Name identifies the baseline.
	Name() string
	// Violation reports whether the detector raises an alarm for the
	// serving batch.
	Violation(serving *data.Dataset) bool
}

// REL detects shift on the raw relational input data, independent of the
// model: a KS test per numeric column and a chi-squared test per
// categorical column against the retained training-time sample, with
// Bonferroni correction for the number of tests.
type REL struct {
	reference *data.Dataset
	numTests  int
}

// NewREL builds the baseline from a reference sample of clean data (the
// held-out test set).
func NewREL(reference *data.Dataset) *REL {
	r := &REL{reference: reference}
	if reference.Tabular() {
		r.numTests = len(reference.Frame.NamesOfKind(frame.Numeric)) +
			len(reference.Frame.NamesOfKind(frame.Categorical))
	}
	return r
}

// Name implements Detector.
func (r *REL) Name() string { return "REL" }

// Applicable reports whether the baseline can run at all: REL needs raw
// relational columns and is not applicable to image data (as the paper
// notes for the auto-keras experiment).
func (r *REL) Applicable() bool { return r.reference.Tabular() && r.numTests > 0 }

// Violation implements Detector.
func (r *REL) Violation(serving *data.Dataset) bool {
	atts, _ := r.Attribute(serving)
	for _, a := range atts {
		if a.Rejected {
			return true
		}
	}
	return false
}

// ColumnAttribution is one row of REL's per-column evidence: which test
// ran, how strong the shift signal is, and whether it survives the
// Bonferroni-corrected significance level. It is the unit of ranked
// drift attribution consumed by incident bundles and reports.
type ColumnAttribution struct {
	Column    string  `json:"column"`
	Kind      string  `json:"kind"` // "numeric" or "categorical"
	Test      string  `json:"test"` // "ks" or "chi2"
	Statistic float64 `json:"statistic"`
	PValue    float64 `json:"p_value"`
	Rejected  bool    `json:"rejected"`
	// MissingDelta is the serving-minus-reference missing rate for
	// numeric columns (an exploded missingness rate counts as shift
	// even when the observed values are identically distributed).
	MissingDelta float64 `json:"missing_delta,omitempty"`
}

// Attribute runs REL's per-column loop against a serving batch and
// returns every column's test result ranked most-suspicious first
// (rejected columns before accepted ones, then ascending p-value,
// descending statistic, column name as the final deterministic
// tie-break), plus the Bonferroni-corrected alpha the rejections were
// judged at. Violation is exactly "any attribution rejected"; the
// incident flight recorder uses the full ranking to name the columns
// that drifted.
func (r *REL) Attribute(serving *data.Dataset) ([]ColumnAttribution, float64) {
	if !r.Applicable() || !serving.Tabular() {
		return nil, Alpha
	}
	alpha := stats.BonferroniAlpha(Alpha, r.numTests)
	var out []ColumnAttribution
	for _, name := range r.reference.Frame.NamesOfKind(frame.Numeric) {
		refRaw := r.reference.Frame.Column(name).Num
		srvRaw := serving.Frame.Column(name).Num
		res := stats.KolmogorovSmirnov(refRaw, srvRaw)
		out = append(out, ColumnAttribution{
			Column:       name,
			Kind:         "numeric",
			Test:         "ks",
			Statistic:    res.Statistic,
			PValue:       res.PValue,
			Rejected:     res.Rejected(alpha) || missingRateJump(refRaw, srvRaw),
			MissingDelta: missingRate(srvRaw) - missingRate(refRaw),
		})
	}
	for _, name := range r.reference.Frame.NamesOfKind(frame.Categorical) {
		refCounts, srvCounts := categoryCounts(
			r.reference.Frame.Column(name).Str, serving.Frame.Column(name).Str)
		res := stats.ChiSquareCounts(refCounts, srvCounts)
		out = append(out, ColumnAttribution{
			Column:    name,
			Kind:      "categorical",
			Test:      "chi2",
			Statistic: res.Statistic,
			PValue:    res.PValue,
			Rejected:  res.Rejected(alpha),
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Rejected != b.Rejected {
			return a.Rejected
		}
		if a.PValue != b.PValue {
			return a.PValue < b.PValue
		}
		if a.Statistic != b.Statistic {
			return a.Statistic > b.Statistic
		}
		return a.Column < b.Column
	})
	return out, alpha
}

func missingRateJump(ref, srv []float64) bool {
	refMiss := missingRate(ref)
	srvMiss := missingRate(srv)
	return srvMiss > refMiss+0.05
}

func missingRate(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	miss := 0
	for _, v := range xs {
		if math.IsNaN(v) {
			miss++
		}
	}
	return float64(miss) / float64(len(xs))
}

// categoryCounts aligns the category count vectors of two string columns
// over the union of observed values (missing "" included as a category).
func categoryCounts(ref, srv []string) (refCounts, srvCounts []float64) {
	index := map[string]int{}
	add := func(vals []string) {
		for _, v := range vals {
			if _, ok := index[v]; !ok {
				index[v] = len(index)
			}
		}
	}
	add(ref)
	add(srv)
	refCounts = make([]float64, len(index))
	srvCounts = make([]float64, len(index))
	for _, v := range ref {
		refCounts[index[v]]++
	}
	for _, v := range srv {
		srvCounts[index[v]]++
	}
	return refCounts, srvCounts
}

// BBSE detects shift on the model's soft outputs: a KS test per softmax
// dimension between the retained test outputs and the serving outputs,
// Bonferroni-corrected across classes.
type BBSE struct {
	model       data.Model
	testOutputs *linalg.Matrix
}

// NewBBSE builds the baseline from the model and its retained outputs on
// the clean test set.
func NewBBSE(model data.Model, testOutputs *linalg.Matrix) *BBSE {
	return &BBSE{model: model, testOutputs: testOutputs}
}

// Name implements Detector.
func (b *BBSE) Name() string { return "BBSE" }

// Violation implements Detector.
func (b *BBSE) Violation(serving *data.Dataset) bool {
	return b.ViolationFromProba(b.model.PredictProba(serving))
}

// ViolationFromProba applies the test to precomputed serving outputs.
func (b *BBSE) ViolationFromProba(proba *linalg.Matrix) bool {
	alpha := stats.BonferroniAlpha(Alpha, b.testOutputs.Cols)
	for c := 0; c < b.testOutputs.Cols; c++ {
		if stats.KolmogorovSmirnov(b.testOutputs.Col(c), proba.Col(c)).Rejected(alpha) {
			return true
		}
	}
	return false
}

// BBSEh detects shift on the model's hard predictions: a chi-squared test
// between the predicted-class counts on test and serving data.
type BBSEh struct {
	model      data.Model
	testCounts []float64
}

// NewBBSEh builds the baseline from the model and its retained outputs on
// the clean test set.
func NewBBSEh(model data.Model, testOutputs *linalg.Matrix) *BBSEh {
	return &BBSEh{model: model, testCounts: classCounts(testOutputs)}
}

// Name implements Detector.
func (b *BBSEh) Name() string { return "BBSE-h" }

// Violation implements Detector.
func (b *BBSEh) Violation(serving *data.Dataset) bool {
	return b.ViolationFromProba(b.model.PredictProba(serving))
}

// ViolationFromProba applies the test to precomputed serving outputs.
func (b *BBSEh) ViolationFromProba(proba *linalg.Matrix) bool {
	return stats.ChiSquareCounts(b.testCounts, classCounts(proba)).Rejected(Alpha)
}

func classCounts(proba *linalg.Matrix) []float64 {
	counts := make([]float64, proba.Cols)
	for i := 0; i < proba.Rows; i++ {
		counts[linalg.ArgmaxRow(proba.Row(i))]++
	}
	return counts
}

// PredictedClassCounts histograms the argmax predictions of a
// probability matrix — the statistic BBSEh tests on. Exported so the
// incident flight recorder can report predicted-class histogram shift
// with exactly the same counting rule as the baseline.
func PredictedClassCounts(proba *linalg.Matrix) []float64 { return classCounts(proba) }
