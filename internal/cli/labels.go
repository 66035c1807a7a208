package cli

// Label-feedback wiring: WireLabels builds the store on the monitor's
// drift timeline, hooks it onto the batch stream and registers its
// metric families. WireNode calls it first, passes the store on to
// WireIncidents so captured bundles carry the assessment snapshot, and
// Node.Routes mounts its Handler at /labels.

import (
	"flag"
	"log/slog"

	"blackboxval/internal/labels"
	"blackboxval/internal/monitor"
	"blackboxval/internal/obs"
)

// LabelOptions configures WireLabels.
type LabelOptions struct {
	// MaxLagWindows is the join horizon in drift-timeline windows
	// (0 = default 64).
	MaxLagWindows int64
	// MaxPending bounds the served batches retained while waiting for
	// labels (0 = default 512).
	MaxPending int
	// Seed drives the active-sampling policies' RNG (0 = default 1).
	Seed int64
	// Registry receives the ppm_labels_* families (nil = obs.Default()).
	Registry *obs.Registry
	// Logger receives join anomalies (nil = slog.Default()).
	Logger *slog.Logger
}

// RegisterFlags installs -label-lag, -label-pending and -label-seed on fs.
func (o *LabelOptions) RegisterFlags(fs *flag.FlagSet) {
	fs.Int64Var(&o.MaxLagWindows, "label-lag", 0, "label join horizon in drift-timeline windows (0 = default 64)")
	fs.IntVar(&o.MaxPending, "label-pending", 0, "served batches retained awaiting labels (0 = default 512)")
	fs.Int64Var(&o.Seed, "label-seed", 0, "active-sampling RNG seed (0 = default 1)")
}

// WireLabels attaches the label-feedback store to the monitor: every
// shadow-observed batch is remembered by X-Request-ID, delayed true
// labels posted to /labels join against it, and the Beta-Bernoulli
// assessment series (labeled_acc_mean/lo95/hi95, labeled_coverage,
// label_lag, h_abs_gap, h_interval_lo/hi) land on the same drift
// timeline as h's unlabeled estimate.
func WireLabels(mon *monitor.Monitor, opts LabelOptions) (*labels.Store, error) {
	store, err := labels.New(labels.Config{
		Timeline:      mon.Timeline(),
		MaxLagWindows: opts.MaxLagWindows,
		MaxPending:    opts.MaxPending,
		Seed:          opts.Seed,
		Logger:        opts.Logger,
	})
	if err != nil {
		return nil, err
	}
	store.RegisterMetrics(opts.Registry)
	mon.OnObserve(store.ObserveBatch)
	return store, nil
}
