package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestKSIdenticalSamplesHighP(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := make([]float64, 500)
	b := make([]float64, 500)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	res := KolmogorovSmirnov(a, b)
	if res.PValue < 0.01 {
		t.Fatalf("same-distribution samples rejected: D=%v p=%v", res.Statistic, res.PValue)
	}
	if res.Rejected(0.001) {
		t.Fatal("Rejected(0.001) should be false")
	}
}

func TestKSShiftedSamplesLowP(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := make([]float64, 500)
	b := make([]float64, 500)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64() + 2
	}
	res := KolmogorovSmirnov(a, b)
	if res.PValue > 1e-6 {
		t.Fatalf("shifted samples not rejected: D=%v p=%v", res.Statistic, res.PValue)
	}
	if !res.Rejected(0.05) {
		t.Fatal("Rejected(0.05) should be true")
	}
}

func TestKSStatisticExact(t *testing.T) {
	// a entirely below b: D must be 1.
	res := KolmogorovSmirnov([]float64{1, 2, 3}, []float64{10, 11, 12})
	if res.Statistic != 1 {
		t.Fatalf("D = %v, want 1", res.Statistic)
	}
	// identical samples: D must be 0, p must be 1.
	res = KolmogorovSmirnov([]float64{1, 2, 3}, []float64{1, 2, 3})
	if res.Statistic != 0 || res.PValue != 1 {
		t.Fatalf("identical samples: D=%v p=%v", res.Statistic, res.PValue)
	}
}

func TestKSEmptySample(t *testing.T) {
	res := KolmogorovSmirnov(nil, []float64{1, 2})
	if res.PValue != 1 {
		t.Fatalf("empty sample should give p=1, got %v", res.PValue)
	}
}

// ksWithin runs KolmogorovSmirnov on its own goroutine and fails the
// test, instead of hanging it, when the call does not return.
func ksWithin(t *testing.T, a, b []float64) TestResult {
	t.Helper()
	done := make(chan TestResult, 1)
	go func() { done <- KolmogorovSmirnov(a, b) }()
	timeout := time.NewTimer(5 * time.Second)
	defer timeout.Stop()
	select {
	case res := <-done:
		return res
	case <-timeout.C:
		t.Fatalf("KolmogorovSmirnov(%v, %v) did not return", a, b)
		return TestResult{}
	}
}

func withoutNaNs(xs []float64) []float64 {
	var out []float64
	for _, v := range xs {
		if !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}

func sameResult(a, b TestResult) bool {
	return math.Float64bits(a.Statistic) == math.Float64bits(b.Statistic) &&
		math.Float64bits(a.PValue) == math.Float64bits(b.PValue)
}

// TestKSExcludesNaNs pins the NaN rule: NaNs in either sample are
// excluded, so the result is bit-equal to the test on the NaN-free
// samples, and an all-NaN sample counts as empty.
func TestKSExcludesNaNs(t *testing.T) {
	nan := math.NaN()
	clean := ksWithin(t, []float64{0.1, 0.2}, []float64{0.15, 0.3})
	for _, c := range []struct{ a, b []float64 }{
		{[]float64{nan, 0.1, 0.2}, []float64{0.15, 0.3}},
		{[]float64{0.1, 0.2}, []float64{0.15, nan, 0.3}},
		{[]float64{0.2, nan, 0.1, nan}, []float64{nan, 0.3, 0.15}},
	} {
		if got := ksWithin(t, c.a, c.b); !sameResult(got, clean) {
			t.Fatalf("KS(%v, %v) = %+v, want the NaN-free %+v", c.a, c.b, got, clean)
		}
	}
	for _, c := range []struct{ a, b []float64 }{
		{[]float64{nan, nan}, []float64{0.1, 0.2}},
		{[]float64{0.1, 0.2}, []float64{nan}},
	} {
		if got := ksWithin(t, c.a, c.b); got.Statistic != 0 || got.PValue != 1 {
			t.Fatalf("all-NaN sample: KS(%v, %v) = %+v, want D=0 p=1", c.a, c.b, got)
		}
	}

	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		a := propertySample(rng, rng.Intn(200), true)
		b := propertySample(rng, rng.Intn(200), true)
		want := ksWithin(t, withoutNaNs(a), withoutNaNs(b))
		if got := ksWithin(t, a, b); !sameResult(got, want) {
			t.Fatalf("trial %d: KS %+v, NaN-free %+v", trial, got, want)
		}
	}
}

// FuzzKolmogorovSmirnov feeds KS arbitrary float samples, NaN and ±Inf
// included: every call must return, keep D and p in [0,1], give the
// same D with its arguments swapped, and equal KS on the NaN-stripped
// samples bit for bit.
func FuzzKolmogorovSmirnov(f *testing.F) {
	seed := make([]byte, 0, 80)
	for _, v := range []float64{math.NaN(), 0.5, math.Inf(-1), 1, 0, math.Inf(1), math.NaN(), -0.5, 0.25, 2} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed, uint8(3))
	f.Add(seed[:8], uint8(0))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, split uint8) {
		var xs []float64
		for i := 0; i+8 <= len(data) && len(xs) < 2048; i += 8 {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data[i:i+8])))
		}
		k := 0
		if len(xs) > 0 {
			k = int(split) % (len(xs) + 1)
		}
		a, b := xs[:k], xs[k:]
		res := ksWithin(t, a, b)
		if !(res.Statistic >= 0 && res.Statistic <= 1 && res.PValue >= 0 && res.PValue <= 1) {
			t.Fatalf("KS = %+v out of [0,1]", res)
		}
		if swapped := ksWithin(t, b, a); math.Float64bits(swapped.Statistic) != math.Float64bits(res.Statistic) {
			t.Fatalf("D not symmetric: %v vs %v", res.Statistic, swapped.Statistic)
		}
		if clean := ksWithin(t, withoutNaNs(a), withoutNaNs(b)); !sameResult(res, clean) {
			t.Fatalf("KS %+v differs from the NaN-stripped %+v", res, clean)
		}
	})
}

func TestKSPValueInRange(t *testing.T) {
	for lambda := 0.0; lambda < 5; lambda += 0.05 {
		p := ksPValue(lambda)
		if p < 0 || p > 1 {
			t.Fatalf("ksPValue(%v) = %v out of [0,1]", lambda, p)
		}
	}
	// Known reference point: Q(1.36) ≈ 0.049 (the classic 5% critical value).
	if p := ksPValue(1.36); math.Abs(p-0.049) > 0.003 {
		t.Fatalf("ksPValue(1.36) = %v, want ≈0.049", p)
	}
}

func TestChiSquareSameDistribution(t *testing.T) {
	res := ChiSquareCounts([]float64{100, 200, 300}, []float64{105, 195, 298})
	if res.PValue < 0.1 {
		t.Fatalf("similar counts rejected: X2=%v p=%v", res.Statistic, res.PValue)
	}
}

func TestChiSquareDifferentDistribution(t *testing.T) {
	res := ChiSquareCounts([]float64{100, 200, 300}, []float64{300, 200, 100})
	if res.PValue > 1e-6 {
		t.Fatalf("divergent counts not rejected: X2=%v p=%v", res.Statistic, res.PValue)
	}
}

func TestChiSquareZeroCategoriesSkipped(t *testing.T) {
	res := ChiSquareCounts([]float64{0, 50, 50}, []float64{0, 48, 52})
	if math.IsNaN(res.Statistic) || math.IsNaN(res.PValue) {
		t.Fatalf("zero category caused NaN: %+v", res)
	}
}

func TestChiSquarePValueReference(t *testing.T) {
	// Chi-squared with 1 df: P(X >= 3.841) ≈ 0.05.
	if p := ChiSquarePValue(3.841, 1); math.Abs(p-0.05) > 0.002 {
		t.Fatalf("ChiSquarePValue(3.841,1) = %v, want ≈0.05", p)
	}
	// Chi-squared with 5 df: P(X >= 11.070) ≈ 0.05.
	if p := ChiSquarePValue(11.070, 5); math.Abs(p-0.05) > 0.002 {
		t.Fatalf("ChiSquarePValue(11.07,5) = %v, want ≈0.05", p)
	}
	if ChiSquarePValue(0, 3) != 1 {
		t.Fatal("P(X>=0) must be 1")
	}
}

func TestGammaQMonotoneDecreasingInX(t *testing.T) {
	prev := 1.0
	for x := 0.1; x < 20; x += 0.1 {
		q := gammaQ(2.5, x)
		if q > prev+1e-12 {
			t.Fatalf("gammaQ not monotone at x=%v: %v > %v", x, q, prev)
		}
		prev = q
	}
}

func TestBonferroni(t *testing.T) {
	if BonferroniAlpha(0.05, 5) != 0.01 {
		t.Fatal("Bonferroni wrong")
	}
	if BonferroniAlpha(0.05, 0) != 0.05 {
		t.Fatal("Bonferroni with n=0 should return alpha")
	}
}
