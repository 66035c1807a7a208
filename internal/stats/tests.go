package stats

import "math"

// TestResult holds the outcome of a two-sample hypothesis test.
type TestResult struct {
	Statistic float64 // test statistic (KS D or chi-squared X²)
	PValue    float64 // probability of a statistic at least this extreme under H0
}

// Rejected reports whether the test rejects the null hypothesis ("the two
// samples come from the same distribution") at significance level alpha.
func (t TestResult) Rejected(alpha float64) bool { return t.PValue < alpha }

// KolmogorovSmirnov performs a two-sample Kolmogorov–Smirnov test between
// samples a and b and returns the D statistic together with the asymptotic
// p-value. Used on model softmax outputs by the performance validator and
// the BBSE baseline, and on raw numeric columns by the REL baseline.
// NaNs are excluded from both samples (as KLL counts and excludes them):
// the result is that of the NaN-free samples, and an all-NaN sample
// counts as empty (D = 0, p = 1).
func KolmogorovSmirnov(a, b []float64) TestResult {
	return KolmogorovSmirnovSorted(SortedCopy(a), SortedCopy(b))
}

// KolmogorovSmirnovSorted is KolmogorovSmirnov for samples already in
// SortedCopy order. Callers that test one fixed reference against many
// batches sort the reference once and pass it here.
func KolmogorovSmirnovSorted(as, bs []float64) TestResult {
	as, bs = skipNaNs(as), skipNaNs(bs)
	n, m := len(as), len(bs)
	if n == 0 || m == 0 {
		return TestResult{Statistic: 0, PValue: 1}
	}
	d := 0.0
	i, j := 0, 0
	for i < n && j < m {
		v := as[i]
		if bs[j] < v {
			v = bs[j]
		}
		for i < n && as[i] <= v {
			i++
		}
		for j < m && bs[j] <= v {
			j++
		}
		diff := math.Abs(float64(i)/float64(n) - float64(j)/float64(m))
		if diff > d {
			d = diff
		}
	}
	en := math.Sqrt(float64(n) * float64(m) / float64(n+m))
	return TestResult{Statistic: d, PValue: ksPValue((en + 0.12 + 0.11/en) * d)}
}

// skipNaNs drops the NaNs that SortedCopy order puts first.
func skipNaNs(sorted []float64) []float64 {
	for len(sorted) > 0 && math.IsNaN(sorted[0]) {
		sorted = sorted[1:]
	}
	return sorted
}

// ksPValue evaluates the Kolmogorov distribution tail
// Q(lambda) = 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k² lambda²).
func ksPValue(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	const maxTerms = 101
	sum := 0.0
	sign := 1.0
	l2 := -2 * lambda * lambda
	for k := 1; k < maxTerms; k++ {
		term := sign * math.Exp(l2*float64(k)*float64(k))
		sum += term
		if math.Abs(term) < 1e-12*math.Abs(sum) {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// ChiSquareCounts performs a chi-squared homogeneity test between two sets
// of category counts (e.g. predicted class counts on test vs. serving
// data, as in the BBSEh baseline). Both slices must have the same length;
// categories with zero total count are skipped.
func ChiSquareCounts(observedA, observedB []float64) TestResult {
	if len(observedA) != len(observedB) {
		panic("stats: chi-square count vectors of unequal length")
	}
	totalA, totalB := 0.0, 0.0
	for i := range observedA {
		totalA += observedA[i]
		totalB += observedB[i]
	}
	if totalA == 0 || totalB == 0 {
		return TestResult{Statistic: 0, PValue: 1}
	}
	grand := totalA + totalB
	x2 := 0.0
	df := -1 // (rows-1)*(cols-1) with rows=2: categories-1
	for i := range observedA {
		colTotal := observedA[i] + observedB[i]
		if colTotal == 0 {
			continue
		}
		df++
		expA := totalA * colTotal / grand
		expB := totalB * colTotal / grand
		da := observedA[i] - expA
		db := observedB[i] - expB
		x2 += da * da / expA
		x2 += db * db / expB
	}
	if df < 1 {
		return TestResult{Statistic: 0, PValue: 1}
	}
	return TestResult{Statistic: x2, PValue: ChiSquarePValue(x2, float64(df))}
}

// ChiSquarePValue returns P(X >= x2) for a chi-squared distribution with
// df degrees of freedom, i.e. the regularized upper incomplete gamma
// function Q(df/2, x2/2).
func ChiSquarePValue(x2, df float64) float64 {
	if x2 <= 0 {
		return 1
	}
	return gammaQ(df/2, x2/2)
}

// gammaQ computes the regularized upper incomplete gamma function Q(a, x)
// using the series expansion for x < a+1 and the continued fraction
// otherwise (Numerical Recipes style).
func gammaQ(a, x float64) float64 {
	if x < 0 || a <= 0 {
		panic("stats: invalid arguments to gammaQ")
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - gammaPSeries(a, x)
	}
	return gammaQContinuedFraction(a, x)
}

func gammaPSeries(a, x float64) float64 {
	const itmax = 500
	const eps = 1e-14
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < itmax; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	lg, _ := math.Lgamma(a)
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func gammaQContinuedFraction(a, x float64) float64 {
	const itmax = 500
	const eps = 1e-14
	const fpmin = 1e-300
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i := 1; i <= itmax; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	lg, _ := math.Lgamma(a)
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// BonferroniAlpha returns the per-test significance level that controls
// the family-wise error rate at alpha across n tests.
func BonferroniAlpha(alpha float64, n int) float64 {
	if n <= 0 {
		return alpha
	}
	return alpha / float64(n)
}
