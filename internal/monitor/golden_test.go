package monitor

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"blackboxval/internal/errorgen"
	"blackboxval/internal/linalg"
)

var updateObserveGolden = flag.Bool("update-observe-golden", false,
	"rewrite testdata/observe_golden.json from the current monitor")

// goldenRecord is the bit-exact part of one monitor record: every float
// is its IEEE-754 bit pattern in hex, so any change in summation order,
// sort order or feature layout shows up as a diff.
type goldenRecord struct {
	Rows               int      `json:"rows"`
	Estimate           string   `json:"estimate"`
	KS                 []string `json:"ks,omitempty"`
	P50Shift           []string `json:"p50_shift,omitempty"`
	ValidatorViolation bool     `json:"validator_violation"`
	ValidatorProb      string   `json:"validator_prob"`
	Violating          bool     `json:"violating"`
}

func hexBits(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

func hexAll(xs []float64) []string {
	if xs == nil {
		return nil
	}
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = hexBits(x)
	}
	return out
}

// goldenStream is the fixed serving stream: seeded clean and corrupted
// income batches of varying size scored by the fixture model, followed
// by hand-made output matrices that pin the edge cases of the sorted
// statistics: a single row, heavy ties and signed zeros.
func goldenStream(t *testing.T) []*linalg.Matrix {
	f := getFixture(t)
	rng := rand.New(rand.NewSource(12))
	gens := errorgen.KnownTabular()
	var stream []*linalg.Matrix
	for i := 0; i < 24; i++ {
		n := 20 + rng.Intn(480)
		idx := make([]int, n)
		for j := range idx {
			idx[j] = rng.Intn(f.serving.Len())
		}
		batch := f.serving.SelectRows(idx)
		if i%2 == 1 {
			batch = gens[rng.Intn(len(gens))].Corrupt(batch, 0.2+0.8*rng.Float64(), rng)
		}
		stream = append(stream, f.model.PredictProba(batch))
	}
	stream = append(stream, f.model.PredictProba(f.serving.SelectRows([]int{3})))
	ties := linalg.NewMatrix(40, 2)
	for i := 0; i < ties.Rows; i++ {
		p := float64(i%4) / 4
		ties.Set(i, 0, 1-p)
		ties.Set(i, 1, p)
	}
	stream = append(stream, ties)
	zeros := linalg.FromRows([][]float64{{0, 1}, {math.Copysign(0, -1), 1}, {1, 0}, {1, math.Copysign(0, -1)}, {0.5, 0.5}})
	return append(stream, zeros)
}

// TestObserveGolden pins the monitor's per-batch numbers bit for bit:
// the predictor's estimate, the drift KS and P50 shift, and the
// validator's decision and probability, over a fixed stream. Never
// regenerate it to make a change pass: a diff here means estimates or
// verdicts moved.
func TestObserveGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The Go compiler fuses multiply-adds on arm64, ppc64 and s390x,
		// which changes low-order bits; the golden holds amd64 bits.
		t.Skipf("golden float bits are recorded on amd64, not %s", runtime.GOARCH)
	}
	f := getFixture(t)
	m, err := New(Config{Predictor: f.pred, Validator: f.val, Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var got []goldenRecord
	for _, proba := range goldenStream(t) {
		rec := m.ObserveProba(proba)
		got = append(got, goldenRecord{
			Rows:               rec.Size,
			Estimate:           hexBits(rec.Estimate),
			KS:                 hexAll(rec.KS),
			P50Shift:           hexAll(rec.P50Shift),
			ValidatorViolation: rec.ValidatorViolation,
			ValidatorProb:      hexBits(f.val.ViolationProbability(proba)),
			Violating:          rec.Violating,
		})
	}
	path := filepath.Join("testdata", "observe_golden.json")
	if *updateObserveGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("stream has %d records, golden %d", len(got), len(want))
	}
	for i := range want {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if string(g) != string(w) {
			t.Errorf("record %d differs from golden:\n got  %s\n want %s", i, g, w)
		}
	}
}
