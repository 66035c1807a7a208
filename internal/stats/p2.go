package stats

import (
	"fmt"
	"sort"
)

// P2Quantile estimates a single quantile online with the P² algorithm
// (Jain & Chlamtac, 1985): five markers are maintained and adjusted with
// parabolic interpolation, giving O(1) memory per quantile regardless of
// stream length. Used to featurize model-output streams that are too
// large (or too continuous) to buffer and sort.
type P2Quantile struct {
	p       float64
	count   int
	initial []float64  // first five observations
	q       [5]float64 // marker heights
	n       [5]float64 // marker positions (1-based)
	np      [5]float64 // desired marker positions
	dn      [5]float64 // desired position increments
}

// NewP2Quantile returns an estimator for the p-quantile (0 < p < 1).
func NewP2Quantile(p float64) *P2Quantile {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: P2 quantile %v out of (0,1)", p))
	}
	return &P2Quantile{
		p:  p,
		dn: [5]float64{0, p / 2, p, (1 + p) / 2, 1},
	}
}

// Add consumes one observation.
func (e *P2Quantile) Add(x float64) {
	e.count++
	if e.count <= 5 {
		e.initial = append(e.initial, x)
		if e.count == 5 {
			sort.Float64s(e.initial)
			for i := 0; i < 5; i++ {
				e.q[i] = e.initial[i]
				e.n[i] = float64(i + 1)
			}
			e.np = [5]float64{1, 1 + 2*e.p, 1 + 4*e.p, 3 + 2*e.p, 5}
		}
		return
	}

	// Find the cell k such that q[k] <= x < q[k+1], clamping extremes.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}

	for i := k + 1; i < 5; i++ {
		e.n[i]++
	}
	for i := 0; i < 5; i++ {
		e.np[i] += e.dn[i]
	}

	// Adjust the interior markers.
	for i := 1; i <= 3; i++ {
		d := e.np[i] - e.n[i]
		if (d >= 1 && e.n[i+1]-e.n[i] > 1) || (d <= -1 && e.n[i-1]-e.n[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			qNew := e.parabolic(i, sign)
			if e.q[i-1] < qNew && qNew < e.q[i+1] {
				e.q[i] = qNew
			} else {
				e.q[i] = e.linear(i, sign)
			}
			e.n[i] += sign
		}
	}
}

// parabolic is the P² piecewise-parabolic marker update.
func (e *P2Quantile) parabolic(i int, d float64) float64 {
	return e.q[i] + d/(e.n[i+1]-e.n[i-1])*
		((e.n[i]-e.n[i-1]+d)*(e.q[i+1]-e.q[i])/(e.n[i+1]-e.n[i])+
			(e.n[i+1]-e.n[i]-d)*(e.q[i]-e.q[i-1])/(e.n[i]-e.n[i-1]))
}

// linear is the fallback marker update.
func (e *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return e.q[i] + d*(e.q[j]-e.q[i])/(e.n[j]-e.n[i])
}

// Count returns the number of observations consumed.
func (e *P2Quantile) Count() int { return e.count }

// Value returns the current quantile estimate. With fewer than five
// observations it falls back to the exact order statistic.
func (e *P2Quantile) Value() float64 {
	if e.count == 0 {
		return 0
	}
	if e.count < 5 {
		sorted := append([]float64(nil), e.initial...)
		sort.Float64s(sorted)
		return PercentileSorted(sorted, e.p*100)
	}
	return e.q[2]
}

// P2Digest tracks a whole percentile grid online, one P² estimator per
// interior grid point plus exact min/max for the extremes.
type P2Digest struct {
	grid       []float64 // percentiles in [0,100]
	estimators []*P2Quantile
	min, max   float64
	count      int
}

// NewP2Digest returns a digest for the given percentile grid (values in
// [0,100], e.g. stats.PercentileGrid(5)).
func NewP2Digest(grid []float64) *P2Digest {
	d := &P2Digest{grid: append([]float64(nil), grid...)}
	for _, p := range grid {
		if p <= 0 || p >= 100 {
			d.estimators = append(d.estimators, nil) // served by min/max
			continue
		}
		d.estimators = append(d.estimators, NewP2Quantile(p/100))
	}
	return d
}

// Add consumes one observation.
func (d *P2Digest) Add(x float64) {
	if d.count == 0 || x < d.min {
		d.min = x
	}
	if d.count == 0 || x > d.max {
		d.max = x
	}
	d.count++
	for _, e := range d.estimators {
		if e != nil {
			e.Add(x)
		}
	}
}

// Count returns the number of observations consumed.
func (d *P2Digest) Count() int { return d.count }

// Quantile returns the estimate for q in [0,1] (0 = exact min, 1 =
// exact max), interpolating linearly between the digest's grid points.
// It adapts the digest to the QuantileEstimator interface shared with
// the mergeable KLL sketch.
func (d *P2Digest) Quantile(q float64) float64 {
	if d.count == 0 {
		return 0
	}
	if q <= 0 {
		return d.min
	}
	if q >= 1 {
		return d.max
	}
	p := q * 100
	vals := d.Values()
	// Extend the grid with the exact extremes so any p interpolates.
	grid := append([]float64{0}, d.grid...)
	grid = append(grid, 100)
	ext := append([]float64{d.min}, vals...)
	ext = append(ext, d.max)
	for i := 1; i < len(grid); i++ {
		if p > grid[i] {
			continue
		}
		lo, hi := grid[i-1], grid[i]
		if hi == lo {
			return ext[i]
		}
		t := (p - lo) / (hi - lo)
		return ext[i-1] + t*(ext[i]-ext[i-1])
	}
	return d.max
}

// Values returns the current percentile estimates in grid order. For an
// ascending grid the estimates are rectified to be monotone
// non-decreasing: the per-point P² estimators are independent, so early
// in a stream adjacent estimates can cross, which the exact
// (sort-based) percentiles never do. The running max restores the
// invariant without hurting accuracy — each clamped value moves toward
// the true quantile, which is at least the preceding one.
func (d *P2Digest) Values() []float64 {
	out := make([]float64, len(d.grid))
	ascending := true
	for i, p := range d.grid {
		switch {
		case d.count == 0:
			out[i] = 0
		case p <= 0:
			out[i] = d.min
		case p >= 100:
			out[i] = d.max
		default:
			out[i] = d.estimators[i].Value()
		}
		if i > 0 && d.grid[i] < d.grid[i-1] {
			ascending = false
		}
	}
	if ascending {
		for i := 1; i < len(out); i++ {
			if out[i] < out[i-1] {
				out[i] = out[i-1]
			}
		}
	}
	return out
}
