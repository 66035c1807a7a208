package cli

// Durable-timeline wiring shared by ppm-monitor, ppm-gateway and
// ppm-aggregate: all three register the -tsdb-* flag group and hand it
// to WireTSDB, which opens the on-disk window store, registers the
// ppm_tsdb_* metric families and hooks Append onto the window source —
// a replica's drift timeline (through WireNode) or the aggregator's
// merged fleet timeline; closed windows flow into segments either way.
// The returned DB's RangeHandler mounts at /timeline/range next to the
// live /timeline.

import (
	"flag"
	"log/slog"
	"time"

	"blackboxval/internal/obs"
	"blackboxval/internal/obs/tsdb"
)

// TSDBOptions configures WireTSDB.
type TSDBOptions struct {
	// Dir is the segment directory (empty = durable history off).
	Dir string
	// Retention drops closed segments whose newest window ended longer
	// ago than this (0 = no age bound).
	Retention time.Duration
	// RetentionBytes bounds the on-disk footprint (0 = tsdb default).
	RetentionBytes int64
	// SegmentBytes bounds one segment file (0 = tsdb default).
	SegmentBytes int64
	// Downsample is the compaction factor K (0 = tsdb default; 1
	// disables compaction so replay stays bit-exact forever).
	Downsample int
	// Registry receives the ppm_tsdb_* families (nil = obs.Default()).
	Registry *obs.Registry
	// Logger receives store lifecycle events (nil = slog.Default()).
	Logger *slog.Logger
}

// RegisterFlags installs the -tsdb-* flags on fs.
func (o *TSDBOptions) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.Dir, "tsdb-dir", "",
		"directory persisting closed timeline windows as an on-disk store (empty = durable history off)")
	fs.DurationVar(&o.Retention, "tsdb-retention", 0,
		"drop persisted segments older than this (0 = no age bound)")
	fs.Int64Var(&o.RetentionBytes, "tsdb-retention-bytes", 0,
		"on-disk footprint bound in bytes (0 = default 256MiB)")
	fs.Int64Var(&o.SegmentBytes, "tsdb-segment-bytes", 0,
		"segment file size bound in bytes (0 = default 4MiB)")
	fs.IntVar(&o.Downsample, "tsdb-downsample", 0,
		"compaction factor merging K old windows per bucket (0 = default 8; 1 keeps full resolution forever)")
}

// WireTSDB opens the durable window store and hooks it onto src so
// every closed timeline window is persisted. With an empty Dir it is a
// no-op returning a nil DB. The returned close function seals the
// active segment (call it on shutdown); it is never nil.
func WireTSDB(src WindowSource, opts TSDBOptions) (*tsdb.DB, func(), error) {
	if opts.Dir == "" {
		return nil, func() {}, nil
	}
	db, err := tsdb.Open(tsdb.Config{
		Dir:            opts.Dir,
		Retention:      opts.Retention,
		RetentionBytes: opts.RetentionBytes,
		SegmentBytes:   opts.SegmentBytes,
		Downsample:     opts.Downsample,
		Logger:         opts.Logger,
	})
	if err != nil {
		return nil, nil, err
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.Default()
	}
	db.RegisterMetrics(reg)
	src.OnWindowClose(db.Append)
	return db, func() { db.Close() }, nil
}
