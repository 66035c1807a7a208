package labels

// recal.go is the online recalibration layer (Elder et al., "Learning
// Prediction Intervals for Model Performance"): a conformal-style
// tracker over the signed residuals between h's per-batch accuracy
// estimate and the labeled accuracy that later arrived for the same
// batch. The empirical residual quantiles wrap every new estimate into
// a prediction interval with finite-sample conservative ranks; its
// empirical coverage is tracked online (each interval is scored
// against the batch's labeled accuracy *before* that batch's residual
// joins the ring) and pinned by the lagged-ramp tests in e2e_test.go.

import (
	"math"
	"sort"
)

// conformal is the bounded residual ring. Not safe for concurrent use;
// the Store serializes access under its lock.
type conformal struct {
	alpha float64 // miscoverage level, e.g. 0.05 for 95% intervals
	min   int     // residuals required before intervals are emitted
	ring  []float64
	idx   int
	n     int

	evaluated int64 // intervals scored against a later labeled accuracy
	covered   int64
	lastLo    float64
	lastHi    float64
}

func newConformal(alpha float64, window, min int) *conformal {
	return &conformal{alpha: alpha, min: min, ring: make([]float64, window), lastHi: 1}
}

// push adds one signed residual (labeled accuracy minus h's estimate),
// evicting the oldest when the ring is full.
func (c *conformal) push(r float64) {
	c.ring[c.idx] = r
	c.idx = (c.idx + 1) % len(c.ring)
	if c.n < len(c.ring) {
		c.n++
	}
}

// interval wraps the estimate into a prediction interval for the
// labeled accuracy, clamped to [0,1]. Ranks are the conservative
// finite-sample split-conformal ones: hi uses the ceil((1-alpha/2)(n+1))-th
// smallest residual, lo the floor((alpha/2)(n+1))-th; when a rank falls
// off the sample the corresponding side is the domain bound. ok is
// false (and the interval vacuous [0,1]) during warmup.
func (c *conformal) interval(estimate float64) (lo, hi float64, ok bool) {
	if c.n < c.min {
		return 0, 1, false
	}
	sorted := append([]float64(nil), c.ring[:c.n]...)
	sort.Float64s(sorted)
	k := float64(c.n + 1)
	lo, hi = 0, 1
	if loRank := int(math.Floor(c.alpha / 2 * k)); loRank >= 1 {
		lo = clamp01(estimate + sorted[loRank-1])
	}
	if hiRank := int(math.Ceil((1 - c.alpha/2) * k)); hiRank <= c.n {
		hi = clamp01(estimate + sorted[hiRank-1])
	}
	return lo, hi, true
}

// score records whether an emitted interval contained the labeled
// accuracy that later materialized — the online empirical coverage.
func (c *conformal) score(lo, hi, actual float64) {
	c.evaluated++
	if actual >= lo && actual <= hi {
		c.covered++
	}
}

// coverage returns the observed online coverage (1 before any interval
// has been scored, so alert rules on under-coverage stay quiet during
// warmup).
func (c *conformal) coverage() float64 {
	if c.evaluated == 0 {
		return 1
	}
	return float64(c.covered) / float64(c.evaluated)
}

// ConformalSummary is the JSON-facing view of the recalibration state.
type ConformalSummary struct {
	Alpha     float64 `json:"alpha"`
	Residuals int     `json:"residuals"`
	Evaluated int64   `json:"evaluated"`
	Coverage  float64 `json:"coverage"`
	// LastLo/LastHi bracket the most recent h estimate seen at join
	// time — the recalibrated prediction interval for model accuracy.
	LastLo float64 `json:"last_lo"`
	LastHi float64 `json:"last_hi"`
}

func (c *conformal) summary() ConformalSummary {
	return ConformalSummary{
		Alpha: c.alpha, Residuals: c.n, Evaluated: c.evaluated,
		Coverage: c.coverage(), LastLo: c.lastLo, LastHi: c.lastHi,
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
