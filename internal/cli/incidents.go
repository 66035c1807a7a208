package cli

// Incident-recorder wiring: WireIncidents loads the bundle's held-out
// reference sample (the attribution baseline), builds the flight
// recorder, hooks it onto the monitor's batch stream and registers its
// metric families. WireNode composes the recorder's AlertNotifier into
// the alert engine so alert fire transitions auto-capture bundles.

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"

	"blackboxval/internal/labels"
	"blackboxval/internal/monitor"
	"blackboxval/internal/obs"
	"blackboxval/internal/obs/incident"
	"blackboxval/internal/persist"
)

// IncidentOptions configures WireIncidents.
type IncidentOptions struct {
	// BundleDir is the trained bundle directory; its reference.json
	// becomes the attribution baseline and its manifest's class list
	// labels the predicted-class histograms.
	BundleDir string
	// Dir is the on-disk bundle retention ring (empty = in-memory only).
	Dir string
	// MaxBundles bounds the retention ring (0 = default 16).
	MaxBundles int
	// ReservoirRows bounds the retained serving-row sample (0 = default 512).
	ReservoirRows int
	// Seed fixes the reservoir's sampling stream (0 = default 1).
	Seed int64
	// Labels, when set, snapshots the label-feedback assessment into
	// every captured bundle (see WireLabels).
	Labels *labels.Store
	// Profiler, when set, captures a bounded CPU+heap pprof pair into
	// every bundle (alert-triggered profiling; the profiler's cooldown
	// bounds cost).
	Profiler *obs.Profiler
	// Serving, when set, snapshots the serving SLO observatory into
	// every bundle (the gateway passes Gateway.IncidentServing).
	Serving func() *incident.ServingSLO
	// Registry receives the ppm_incident_* families (nil = obs.Default()).
	Registry *obs.Registry
	// Logger receives capture logs (nil = slog.Default()).
	Logger *slog.Logger
}

// RegisterFlags installs -incident-dir, -incident-rows, -incident-max
// and -incident-seed on fs.
func (o *IncidentOptions) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.Dir, "incident-dir", "", "directory retaining incident bundles as JSON (empty = in-memory only)")
	fs.IntVar(&o.ReservoirRows, "incident-rows", 0, "incident reservoir size in raw serving rows (0 = default 512)")
	fs.IntVar(&o.MaxBundles, "incident-max", 0, "retained incident bundles (0 = default 16)")
	fs.Int64Var(&o.Seed, "incident-seed", 0, "incident reservoir sampling seed (0 = default 1)")
}

// WireIncidents attaches an incident flight recorder to the monitor:
// the recorder samples every observed serving batch into a bounded
// deterministic reservoir and, when triggered, assembles a diagnostic
// bundle with per-column drift attribution against the bundle's
// held-out reference sample.
func WireIncidents(mon *monitor.Monitor, opts IncidentOptions) (*incident.Recorder, error) {
	reference, err := persist.LoadDataset(filepath.Join(opts.BundleDir, ReferenceFile))
	if err != nil {
		return nil, fmt.Errorf("cli: loading incident reference sample: %w", err)
	}
	var classes []string
	if raw, err := os.ReadFile(filepath.Join(opts.BundleDir, ManifestFile)); err == nil {
		var manifest Manifest
		if err := json.Unmarshal(raw, &manifest); err == nil {
			classes = manifest.Classes
		}
	}
	if classes == nil {
		classes = reference.Classes
	}
	cfg := incident.Config{
		Reference:     reference,
		Classes:       classes,
		Monitor:       mon,
		Dir:           opts.Dir,
		MaxBundles:    opts.MaxBundles,
		ReservoirRows: opts.ReservoirRows,
		Seed:          opts.Seed,
		Labels:        opts.Labels,
		Profiler:      opts.Profiler,
		Serving:       opts.Serving,
		Registry:      opts.Registry,
		Logger:        opts.Logger,
	}
	if pred := mon.Predictor(); pred != nil {
		cfg.RefOutputs = pred.TestOutputs()
	}
	rec, err := incident.New(cfg)
	if err != nil {
		return nil, err
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.Default()
	}
	rec.RegisterMetrics(reg)
	mon.OnObserve(rec.ObserveBatch)
	return rec, nil
}
