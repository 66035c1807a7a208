package cli

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"blackboxval/internal/monitor"
	"blackboxval/internal/obs"
)

// WatchOptions configures PrepareWatch.
type WatchOptions struct {
	// BundleDir holds the artifacts written by Train.
	BundleDir string
	// WatchDir is polled for new .csv serving batches.
	WatchDir string
	// Interval is the polling period (default 2s).
	Interval time.Duration
	// Labeled indicates the CSVs carry a trailing label column.
	Labeled bool
	// MaxBatches stops the watcher after processing this many batches
	// (0 = run until Stop is closed). Tests and one-shot runs use this.
	MaxBatches int
	// Monitor carries the monitor settings (hysteresis, timeline
	// geometry, dashboard refresh); the bundle supplies its predictor,
	// validator and threshold.
	Monitor monitor.Config
	// Stop terminates the loop when closed.
	Stop <-chan struct{}
	// Out receives the per-batch log lines.
	Out io.Writer
}

// PrepareWatch loads the bundle and builds the monitor, returning the
// polling loop as a closure so callers can mount the monitor's HTTP
// dashboard before the loop starts. The loop polls a directory for
// serving batch CSVs and feeds each new file to the monitor, logging
// one line per batch.
func PrepareWatch(opts WatchOptions) (*monitor.Monitor, func() error, error) {
	if opts.Out == nil {
		opts.Out = os.Stdout
	}
	if opts.Interval <= 0 {
		opts.Interval = 2 * time.Second
	}
	manifest, _, pred, val, err := LoadBundle(opts.BundleDir)
	if err != nil {
		return nil, nil, err
	}
	cfg := opts.Monitor
	cfg.Predictor, cfg.Validator, cfg.Threshold = pred, val, manifest.Threshold
	mon, err := monitor.New(cfg)
	if err != nil {
		return nil, nil, err
	}

	run := func() error {
		fmt.Fprintf(opts.Out, "watching %s for serving batches (alarm line %.3f)\n",
			opts.WatchDir, mon.AlarmLine())
		processed := map[string]bool{}
		batches := 0
		for {
			names, err := listCSVs(opts.WatchDir)
			if err != nil {
				return err
			}
			for _, name := range names {
				if processed[name] {
					continue
				}
				processed[name] = true
				batches++
				path := filepath.Join(opts.WatchDir, name)
				_, sp := obs.StartSpan(context.Background(), "watch_batch")
				ds, err := ReadBatchCSV(path, manifest, opts.Labeled)
				if err != nil {
					sp.End()
					fmt.Fprintf(opts.Out, "%s: SKIPPED (%v)\n", name, err)
					continue
				}
				rec := mon.Observe(ds)
				sp.SetMetric("rows", float64(rec.Size))
				sp.SetMetric("estimate", rec.Estimate)
				sp.End()
				status := "ok"
				if rec.Alarming {
					status = "ALARM"
				} else if rec.Violating {
					status = "violating"
				}
				fmt.Fprintf(opts.Out, "%s: %d rows, estimate %.3f, %s\n",
					name, rec.Size, rec.Estimate, status)
				if opts.MaxBatches > 0 && batches >= opts.MaxBatches {
					return nil
				}
			}
			select {
			case <-opts.Stop:
				return nil
			case <-time.After(opts.Interval):
			}
		}
	}
	return mon, run, nil
}

// listCSVs returns the .csv files in dir, sorted by name for
// deterministic processing order.
func listCSVs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cli: reading watch dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".csv") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}
