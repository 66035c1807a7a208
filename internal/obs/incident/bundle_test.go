package incident

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"blackboxval/internal/obs"
)

// TestLoadBundleRejectsMismatchedClassShift pins the reader against a
// bundle whose class-shift histograms disagree in length: Markdown
// indexes both by the reference classes, so loading it would hand
// ppm-diagnose and the incident view a report that panics.
func TestLoadBundleRejectsMismatchedClassShift(t *testing.T) {
	path := filepath.Join(t.TempDir(), "inc-000001.json")
	raw := `{"id":"inc-000001","reason":"manual","class_shift":{"reference":[1,2,3],"serving":[1]}}`
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(path)
	if err == nil {
		b.Markdown()
		t.Fatal("LoadBundle accepted a class_shift with 3 reference and 1 serving counts")
	}
	if !strings.Contains(err.Error(), "class_shift") {
		t.Fatalf("error %q does not name the class_shift section", err)
	}
}

// FuzzLoadBundle feeds arbitrary bytes to the bundle reader: a bundle
// it accepts must render to markdown without panicking.
func FuzzLoadBundle(f *testing.F) {
	full := Bundle{
		ID: "inc-000007", CapturedAt: time.Unix(1700000000, 0).UTC(), Reason: "alert:x",
		Rule: "x", Severity: "critical", AlertSeries: "estimate", AlertValue: 0.4,
		Alarming: true, AlarmLine: 0.7, ReservoirRows: 4, RowsSeen: 9, BatchesSeen: 2, Seed: 1,
		ReservoirWindows: &WindowSpan{Min: 0, Max: 1},
		ClassShift:       &ClassShift{Classes: []string{"a"}, Reference: []float64{3, 4}, Serving: []float64{1, 6}},
		Timeline: []obs.Window{{Index: 1, Batches: 1, Series: map[string]obs.Aggregate{
			"estimate": {Count: 1, Sum: 0.5, Min: 0.5, Max: 0.5, Last: 0.5}}}},
		WorstBatches: []BatchRef{{Seq: 1, RequestID: "r-1", Estimate: 0.4, Size: 10}},
		Serving:      &ServingSLO{Requests: 5, Stages: []ServingStage{{Stage: "request", Count: 5}}},
		Metrics:      "a 1\n",
	}
	raw, err := json.Marshal(full)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte(`{"id":"inc-000001","class_shift":{"reference":[1,2,3],"serving":[1]}}`))
	f.Add([]byte(`{"id":"x","labels":{"strata":[{"class":1}]},"attribution":[{"column":"age"}]}`))
	f.Add([]byte(`{"id":"x","profiles":{"cpu":"AA==","heap":""},"spans":[{}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeBundle(data)
		if err != nil {
			return
		}
		b.Markdown()
		b.TopColumn()
	})
}
