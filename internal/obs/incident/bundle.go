package incident

// bundle.go is the incident bundle itself: the self-contained JSON
// artifact a capture freezes, its bounded on-disk retention ring, and
// the human-readable markdown report ppm-diagnose and the dashboard
// view render from it.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"blackboxval/internal/baselines"
	"blackboxval/internal/labels"
	"blackboxval/internal/monitor"
	"blackboxval/internal/obs"
	"blackboxval/internal/stats"
)

// WindowSpan brackets a range of drift-timeline window indices.
type WindowSpan struct {
	Min int64 `json:"min"`
	Max int64 `json:"max"`
}

// BatchRef points an incident at one monitored serving batch, carrying
// the X-Request-ID needed to find it again in /history, the gateway
// log and the span attrs.
type BatchRef struct {
	Seq       int     `json:"seq"`
	RequestID string  `json:"request_id,omitempty"`
	TraceID   string  `json:"trace_id,omitempty"`
	Estimate  float64 `json:"estimate"`
	Size      int     `json:"size"`
	Violating bool    `json:"violating"`
}

// TraceRef embeds one sampled trace's local span fragments in a
// bundle: the worst-estimate batches' traces and the slowest-exemplar
// requests' traces, so a burn-rate incident page opens directly into a
// cross-process waterfall (stitch with ppm-diagnose -trace, merging
// the other processes' journals).
type TraceRef struct {
	TraceID   string `json:"trace_id"`
	RequestID string `json:"request_id,omitempty"`
	// Why records what pulled the trace into the bundle:
	// "worst_estimate" or "slowest_exemplar".
	Why   string         `json:"why"`
	Spans []obs.SpanJSON `json:"spans,omitempty"`
}

// ClassShift is the BBSEh-style predicted-class histogram comparison:
// the chi-squared test between the reference histogram (model outputs
// on the held-out test set) and the recent serving window's.
type ClassShift struct {
	Classes   []string  `json:"classes,omitempty"`
	Reference []float64 `json:"reference"`
	Serving   []float64 `json:"serving"`
	Statistic float64   `json:"statistic"`
	PValue    float64   `json:"p_value"`
	Rejected  bool      `json:"rejected"`
}

// Bundle is one self-contained incident: everything an operator needs
// to diagnose an excursion without access to the live process.
type Bundle struct {
	ID         string    `json:"id"`
	CapturedAt time.Time `json:"captured_at"`
	// Reason is "manual" or "alert:<rule>".
	Reason      string  `json:"reason"`
	Rule        string  `json:"rule,omitempty"`
	Severity    string  `json:"severity,omitempty"`
	AlertSeries string  `json:"alert_series,omitempty"`
	AlertValue  float64 `json:"alert_value,omitempty"`

	Alarming  bool             `json:"alarming"`
	AlarmLine float64          `json:"alarm_line,omitempty"`
	Summary   *monitor.Summary `json:"summary,omitempty"`

	// Reservoir provenance: the determinism contract's inputs.
	ReservoirRows int   `json:"reservoir_rows"`
	RowsSeen      int64 `json:"rows_seen"`
	BatchesSeen   int64 `json:"batches_seen"`
	Seed          int64 `json:"seed"`
	// ReservoirWindows is the served_at window-index span of the rows
	// currently retained in the reservoir (nil while empty).
	ReservoirWindows *WindowSpan `json:"reservoir_windows,omitempty"`

	// Labels is the label-feedback snapshot at capture time: the
	// labeled-accuracy credible interval an operator reads next to h's
	// unlabeled estimate. Nil when no label store was wired.
	Labels *labels.Snapshot `json:"labels,omitempty"`

	// Attribution is the ranked per-column drift evidence (most
	// suspicious first) and the Bonferroni-corrected alpha it was
	// judged at.
	Attribution    []baselines.ColumnAttribution `json:"attribution,omitempty"`
	CorrectedAlpha float64                       `json:"corrected_alpha,omitempty"`
	ClassShift     *ClassShift                   `json:"class_shift,omitempty"`

	Timeline     []obs.Window   `json:"timeline,omitempty"`
	WorstBatches []BatchRef     `json:"worst_batches,omitempty"`
	Spans        []obs.SpanJSON `json:"spans,omitempty"`
	// Traces are the sampled traces of the worst-estimate batches and
	// the slowest request exemplars at capture time (local fragments:
	// this process's ring + journal).
	Traces []TraceRef `json:"traces,omitempty"`
	// Serving is the serving SLO snapshot at capture time: per-stage
	// latency quantiles plus the slowest request exemplars, whose
	// X-Request-IDs resolve in /history and the gateway log.
	Serving *ServingSLO `json:"serving,omitempty"`
	// Profiles is the alert-triggered CPU+heap pprof pair (base64 pprof
	// protos in the JSON; extract with ppm-diagnose -extract-profiles).
	Profiles *obs.Profiles `json:"profiles,omitempty"`
	// Metrics is a Prometheus text exposition snapshot of the process
	// registry at capture time.
	Metrics string `json:"metrics,omitempty"`
}

// ServingStage is one stage's latency summary inside a bundle.
type ServingStage struct {
	Stage string  `json:"stage"`
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   float64 `json:"max"`
}

// ServingSLO is the serving SLO observatory's snapshot embedded in a
// bundle. The gateway fills it from its /slo tracker (Config.Serving).
type ServingSLO struct {
	BudgetSeconds float64          `json:"budget_seconds"`
	Target        float64          `json:"target"`
	Requests      int64            `json:"requests"`
	OverBudget    int64            `json:"over_budget"`
	BurnFast      float64          `json:"burn_fast"`
	BurnSlow      float64          `json:"burn_slow"`
	Stages        []ServingStage   `json:"stages,omitempty"`
	Exemplars     []stats.Exemplar `json:"exemplars,omitempty"`
}

// TopColumn names the highest-ranked attributed column ("" when the
// bundle carries no attribution).
func (b *Bundle) TopColumn() string {
	if len(b.Attribution) == 0 {
		return ""
	}
	return b.Attribution[0].Column
}

// Markdown renders the bundle as a human incident report.
func (b *Bundle) Markdown() string {
	var w strings.Builder
	fmt.Fprintf(&w, "# Incident %s\n\n", b.ID)
	fmt.Fprintf(&w, "- captured: %s\n", b.CapturedAt.Format(time.RFC3339))
	fmt.Fprintf(&w, "- reason: %s\n", b.Reason)
	if b.Rule != "" {
		fmt.Fprintf(&w, "- rule: %s (severity %s, series %q, value %.4g)\n",
			b.Rule, b.Severity, b.AlertSeries, b.AlertValue)
	}
	fmt.Fprintf(&w, "- alarming: %v", b.Alarming)
	if b.AlarmLine > 0 {
		fmt.Fprintf(&w, " (alarm line %.4f)", b.AlarmLine)
	}
	w.WriteString("\n")
	fmt.Fprintf(&w, "- reservoir: %d rows sampled from %d seen across %d batches (seed %d)",
		b.ReservoirRows, b.RowsSeen, b.BatchesSeen, b.Seed)
	if ws := b.ReservoirWindows; ws != nil {
		fmt.Fprintf(&w, ", served in windows %d–%d", ws.Min, ws.Max)
	}
	w.WriteString("\n")
	if s := b.Summary; s != nil {
		fmt.Fprintf(&w, "- history: %d batches, %d violations, %d alarmed; estimate mean %.4f min %.4f last %.4f\n",
			s.Batches, s.Violations, s.AlarmedBatches, s.MeanEstimate, s.MinEstimate, s.LastEstimate)
	}

	if l := b.Labels; l != nil {
		w.WriteString("\n## Label feedback\n\n")
		fmt.Fprintf(&w, "- labeled accuracy: %.4f [%.4f, %.4f] at %.0f%% credibility (%d of %d served rows labeled, coverage %.1f%%)\n",
			l.Overall.Mean, l.Overall.Lo, l.Overall.Hi, l.Level*100,
			l.RowsLabeled, l.RowsServed, l.Coverage*100)
		fmt.Fprintf(&w, "- label lag: last %d windows, mean %.1f; pending: %d batches, %d buffered posts\n",
			l.LastLagWindows, l.MeanLagWindows, l.PendingBatches, l.PendingPosts)
		fmt.Fprintf(&w, "- recalibrated h interval: [%.4f, %.4f] (conformal, %d residuals, online coverage %.3f)\n",
			l.Conformal.LastLo, l.Conformal.LastHi, l.Conformal.Residuals, l.Conformal.Coverage)
		if len(l.Strata) > 0 {
			w.WriteString("\n| stratum (class, alarm) | labeled | correct | mean | interval |\n")
			w.WriteString("|------------------------|--------:|--------:|-----:|----------|\n")
			for _, st := range l.Strata {
				fmt.Fprintf(&w, "| class %d, alarming=%v | %d | %d | %.4f | [%.4f, %.4f] |\n",
					st.Class, st.Alarming, st.Labeled, st.Correct, st.Mean, st.Lo, st.Hi)
			}
		}
	}

	w.WriteString("\n## Per-column drift attribution\n\n")
	if len(b.Attribution) == 0 {
		w.WriteString("No attribution: the recorder had no reference sample or no raw rows.\n")
	} else {
		fmt.Fprintf(&w, "Bonferroni-corrected alpha: %.2e. Most suspicious first.\n\n", b.CorrectedAlpha)
		w.WriteString("| rank | column | kind | test | statistic | p-value | rejected | missing Δ |\n")
		w.WriteString("|-----:|--------|------|------|----------:|--------:|----------|----------:|\n")
		for i, a := range b.Attribution {
			fmt.Fprintf(&w, "| %d | %s | %s | %s | %.4f | %.3g | %v | %+.3f |\n",
				i+1, a.Column, a.Kind, a.Test, a.Statistic, a.PValue, a.Rejected, a.MissingDelta)
		}
	}

	w.WriteString("\n## Predicted-class histogram shift (BBSEh)\n\n")
	if cs := b.ClassShift; cs == nil {
		w.WriteString("Not computed (no reference outputs).\n")
	} else {
		fmt.Fprintf(&w, "Chi-squared %.4f, p-value %.3g, rejected at alpha %.2f: %v\n\n",
			cs.Statistic, cs.PValue, baselines.Alpha, cs.Rejected)
		w.WriteString("| class | reference count | serving count |\n|-------|----------------:|--------------:|\n")
		for i := range cs.Reference {
			name := fmt.Sprintf("class%d", i)
			if i < len(cs.Classes) && cs.Classes[i] != "" {
				name = cs.Classes[i]
			}
			fmt.Fprintf(&w, "| %s | %.0f | %.0f |\n", name, cs.Reference[i], cs.Serving[i])
		}
	}

	w.WriteString("\n## Worst-scoring batches\n\n")
	if len(b.WorstBatches) == 0 {
		w.WriteString("None recorded.\n")
	} else {
		w.WriteString("| seq | estimate | size | violating | X-Request-ID |\n|----:|---------:|-----:|-----------|--------------|\n")
		for _, ref := range b.WorstBatches {
			id := ref.RequestID
			if id == "" {
				id = "—"
			}
			fmt.Fprintf(&w, "| %d | %.4f | %d | %v | %s |\n", ref.Seq, ref.Estimate, ref.Size, ref.Violating, id)
		}
	}

	w.WriteString("\n## Timeline excerpt\n\n")
	if len(b.Timeline) == 0 {
		w.WriteString("No closed timeline windows at capture time.\n")
	} else {
		w.WriteString("| window | batches | estimate (mean) | ks_max | alarm | violation |\n")
		w.WriteString("|-------:|--------:|----------------:|-------:|------:|----------:|\n")
		for _, win := range b.Timeline {
			fmt.Fprintf(&w, "| %d | %d | %.4f | %.4f | %.0f | %.0f |\n",
				win.Index, win.Batches,
				win.Series["estimate"].Mean(),
				win.Series["ks_max"].Mean(),
				win.Series["alarm"].Max,
				win.Series["violation"].Max)
		}
	}

	if s := b.Serving; s != nil {
		w.WriteString("\n## Serving SLO\n\n")
		fmt.Fprintf(&w, "- budget %.1fms at target %.2f%%: %d of %d requests over budget (burn fast %.2f, slow %.2f)\n",
			s.BudgetSeconds*1000, s.Target*100, s.OverBudget, s.Requests, s.BurnFast, s.BurnSlow)
		if len(s.Stages) > 0 {
			w.WriteString("\n| stage | count | p50 | p99 | p999 | max |\n")
			w.WriteString("|-------|------:|----:|----:|-----:|----:|\n")
			for _, st := range s.Stages {
				fmt.Fprintf(&w, "| %s | %d | %.2fms | %.2fms | %.2fms | %.2fms |\n",
					st.Stage, st.Count, st.P50*1000, st.P99*1000, st.P999*1000, st.Max*1000)
			}
		}
		if len(s.Exemplars) > 0 {
			w.WriteString("\nSlowest requests (X-Request-ID → /history):\n\n")
			for _, ex := range s.Exemplars {
				fmt.Fprintf(&w, "- %s: %.2fms\n", ex.RequestID, ex.Value*1000)
			}
		}
	}
	if p := b.Profiles; p != nil {
		fmt.Fprintf(&w, "\n## Profiles\n\nCPU profile: %d bytes over %.0fms; heap profile: %d bytes. Extract from the bundle JSON and read with `go tool pprof`.\n",
			len(p.CPU), p.CPUSeconds*1000, len(p.Heap))
	}
	if len(b.Spans) > 0 {
		fmt.Fprintf(&w, "\n## Spans\n\n%d recent trace(s) embedded; see the bundle JSON for the trees.\n", len(b.Spans))
	}
	if b.Metrics != "" {
		fmt.Fprintf(&w, "\n## Metrics snapshot\n\n%d exposition lines embedded; see the bundle JSON.\n",
			strings.Count(b.Metrics, "\n"))
	}
	return w.String()
}

// LoadBundle reads one bundle JSON file, as written by the retention
// ring (used by ppm-diagnose and the recorder's -incident-dir reload).
// Bundles are read back from disk, so a bundle whose parts disagree
// with each other is rejected here rather than trusted by Markdown.
func LoadBundle(path string) (*Bundle, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("incident: %w", err)
	}
	b, err := decodeBundle(raw)
	if err != nil {
		return nil, fmt.Errorf("incident: %s: %w", path, err)
	}
	return b, nil
}

// decodeBundle parses and validates one bundle document.
func decodeBundle(raw []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("decoding: %w", err)
	}
	if b.ID == "" {
		return nil, fmt.Errorf("not an incident bundle (no id)")
	}
	if cs := b.ClassShift; cs != nil && len(cs.Serving) != len(cs.Reference) {
		return nil, fmt.Errorf("class_shift has %d reference and %d serving counts",
			len(cs.Reference), len(cs.Serving))
	}
	return &b, nil
}

// persist writes b under the retention dir (atomic rename) and prunes
// the ring beyond MaxBundles. No-op without a Dir.
func (r *Recorder) persist(b *Bundle) error {
	if r.cfg.Dir == "" {
		return nil
	}
	if err := os.MkdirAll(r.cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("incident: %w", err)
	}
	raw, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("incident: encoding bundle: %w", err)
	}
	final := filepath.Join(r.cfg.Dir, b.ID+".json")
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("incident: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("incident: %w", err)
	}
	// Prune the on-disk ring: ids are zero-padded sequence numbers, so
	// lexical order is capture order.
	paths, err := filepath.Glob(filepath.Join(r.cfg.Dir, "inc-*.json"))
	if err != nil {
		return nil
	}
	sort.Strings(paths)
	for len(paths) > r.cfg.MaxBundles {
		os.Remove(paths[0])
		paths = paths[1:]
	}
	return nil
}

// loadDir seeds the in-memory ring and the id counter from bundles
// already retained on disk (oldest first, bounded by MaxBundles).
func (r *Recorder) loadDir() error {
	paths, err := filepath.Glob(filepath.Join(r.cfg.Dir, "inc-*.json"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	if len(paths) > r.cfg.MaxBundles {
		paths = paths[len(paths)-r.cfg.MaxBundles:]
	}
	for _, path := range paths {
		b, err := LoadBundle(path)
		if err != nil {
			r.cfg.Logger.Warn("skipping unreadable incident bundle", "path", path, "err", err)
			continue
		}
		r.bundles = append(r.bundles, b)
		var seq int
		if _, err := fmt.Sscanf(b.ID, "inc-%d", &seq); err == nil && seq >= r.nextSeq {
			r.nextSeq = seq + 1
		}
	}
	return nil
}
