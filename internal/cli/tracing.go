package cli

// Tracing wiring shared by every daemon: open the bounded on-disk
// span journal, point the process tracer at it, and export the
// ppm_trace_* counter families — one call in each main(), so every
// process in the fleet persists its trace fragments the same way and
// ppm-diagnose -trace can stitch them (DESIGN.md §16).

import (
	"flag"
	"log/slog"

	"blackboxval/internal/obs"
)

// TracingOptions configures WireTracing.
type TracingOptions struct {
	// Dir is the span journal directory; "" keeps spans in the
	// in-memory ring only (/debug/traces still serves the live ring,
	// but fragments neither survive the process nor feed
	// ppm-diagnose -trace).
	Dir string
	// Registry receives the ppm_trace_* families (nil = obs.Default()).
	Registry *obs.Registry
	// Logger receives the startup line (nil = slog.Default()).
	Logger *slog.Logger
}

// RegisterFlags installs -trace-dir on fs.
func (o *TracingOptions) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.Dir, "trace-dir", "",
		"span journal directory for cross-process trace stitching (empty = in-memory ring only)")
}

// WireTracing attaches the distributed-tracing plumbing to a process:
// with Dir set it opens (or resumes) the bounded spans-*.jsonl journal
// (obs defaults: 1 MiB × 4 segments) and points the process default
// tracer at it, and it always registers the ppm_trace_* counter
// families. The returned close function detaches the tracer and
// closes the journal; it is never nil.
func WireTracing(opts TracingOptions) (func(), error) {
	tracer := obs.DefaultTracer()
	reg := opts.Registry
	if reg == nil {
		reg = obs.Default()
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	closer := func() {}
	if opts.Dir != "" {
		j, err := obs.OpenJournal(opts.Dir, 0, 0)
		if err != nil {
			return nil, err
		}
		tracer.SetJournal(j)
		closer = func() {
			tracer.SetJournal(nil)
			j.Close()
		}
		logger.Info("span journal on", "dir", opts.Dir)
	}
	obs.RegisterTraceMetrics(reg, tracer)
	return closer, nil
}
