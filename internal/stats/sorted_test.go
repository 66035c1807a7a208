package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refPercentiles and refKS are the pre-sorted-form implementations:
// each call copies and sorts its own input.
func refPercentiles(xs, ps []float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = PercentileSorted(sorted, p)
	}
	return out
}

func refKS(a, b []float64) TestResult {
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	return KolmogorovSmirnovSorted(as, bs)
}

// propertySample draws a sample mixing the cases where sort order is
// delicate: heavy ties, signed zeros, extremes and (when nan is set)
// NaNs, which sort first.
func propertySample(rng *rand.Rand, n int, nan bool) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch rng.Intn(6) {
		case 0:
			xs[i] = math.Round(rng.Float64()*4) / 4
		case 1:
			xs[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		case 2:
			xs[i] = []float64{1, 5e-324, math.MaxFloat64, -1}[rng.Intn(4)]
		case 3:
			if nan {
				xs[i] = math.NaN()
				continue
			}
			fallthrough
		default:
			xs[i] = rng.Float64()
		}
	}
	return xs
}

func sameBits(a, b []float64) bool {
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

// TestSortedFormsMatchUnsorted pins the contract the shadow path's
// sort-once refactor relies on: a column sorted once with SortedCopy
// and shared gives the same bits, for percentiles and KS alike, as
// every call sorting its own copy.
func TestSortedFormsMatchUnsorted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	grid := PercentileGrid(5)
	for trial := 0; trial < 500; trial++ {
		xs := propertySample(rng, 1+rng.Intn(300), true)
		sorted := SortedCopy(xs)
		want := refPercentiles(xs, grid)
		if got := AppendPercentilesSorted(nil, sorted, grid); !sameBits(got, want) {
			t.Fatalf("trial %d: sorted percentiles %v, unsorted %v", trial, got, want)
		}
		if got := Percentiles(xs, grid); !sameBits(got, want) {
			t.Fatalf("trial %d: Percentiles %v, reference %v", trial, got, want)
		}
		if got := Percentile(xs, 50); !sameBits([]float64{got}, []float64{PercentileSorted(sorted, 50)}) {
			t.Fatalf("trial %d: Percentile(50) %v", trial, got)
		}

		// KS never sees NaN on the shadow path: the wire cannot carry it.
		a := propertySample(rng, rng.Intn(300), false)
		b := propertySample(rng, rng.Intn(300), false)
		want2 := refKS(a, b)
		for _, got := range []TestResult{KolmogorovSmirnov(a, b), KolmogorovSmirnovSorted(SortedCopy(a), SortedCopy(b))} {
			if math.Float64bits(got.Statistic) != math.Float64bits(want2.Statistic) || math.Float64bits(got.PValue) != math.Float64bits(want2.PValue) {
				t.Fatalf("trial %d: KS %+v, reference %+v", trial, got, want2)
			}
		}
	}
}
