package tsdb

// query.go: the read path. Queries re-read segment files on demand and
// keep no decoded window cache (decoded sketch maps take about three
// times their JSON size). Under db.mu a query only looks up, in each
// segment's in-memory record index, the stretch of frames that overlaps
// its range and copies those bytes; the CRC checks, the JSON decode and
// the merge run after the lock is released, so appends never wait
// behind a decode, and a 16-window range decodes 16 records, not the
// 4 MiB segments they sit in. Re-aggregation to a caller-chosen step
// reuses the same mergeable-statistics rules as compaction (sums via
// ExactSum merge, quantiles read off merged sketches, never averaged
// point estimates), so a range query at step=K over raw history equals
// the compacted record for the same bucket bit-for-bit.

import (
	"fmt"
	"os"
	"sort"

	"blackboxval/internal/obs"
)

// Point is one re-aggregated bucket of a per-series range query.
type Point struct {
	// Index is the bucket start in window-index space; the bucket
	// conceptually covers [Index, Index+step).
	Index int64 `json:"index"`
	// Span is how many raw window indices the merged records cover
	// (gaps make Span < step).
	Span int64 `json:"span"`
	// Windows is how many raw windows were folded into the bucket.
	Windows int64   `json:"windows"`
	Count   int     `json:"count"`
	Sum     float64 `json:"sum"`
	Mean    float64 `json:"mean"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Last    float64 `json:"last"`
	// Quantiles are read off the merged persisted sketch ("p50", ...).
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
}

// run is a stretch of consecutive records of one segment, copied out
// under db.mu so that it can be decoded after the lock is released.
type run struct {
	path string
	refs []recordRef
	buf  []byte
}

// snapshotLocked copies out the bytes of every effective record
// overlapping the index range [from, to]: per segment, the one
// contiguous stretch of frames its record index says overlaps. Level-0
// records below the compactedThrough watermark are shadowed duplicates
// of a level-1 bucket and are skipped. rawOnly restricts the scan to
// raw (span 1, level 0) records — the compaction input. The active
// segment is included: its index covers only whole frames. Because the
// bytes are copied, retention may delete a file as soon as the lock is
// released.
func (db *DB) snapshotLocked(from, to int64, rawOnly bool) []run {
	if to < from {
		return nil
	}
	infos := make([]*segmentInfo, 0, len(db.segments)+1)
	infos = append(infos, db.segments...)
	if db.actInfo != nil {
		infos = append(infos, db.actInfo)
	}
	var out []run
	for _, info := range infos {
		if info.records() == 0 || info.minIndex > to || info.endIndex <= from {
			continue
		}
		if rawOnly && info.level != 0 {
			continue
		}
		// Records are in index order and do not overlap, so both edges
		// are binary searches and everything between them is wanted.
		refs := info.refs
		lo := sort.Search(len(refs), func(i int) bool {
			return refs[i].end > from && (info.level != 0 || refs[i].index >= db.compactedThrough)
		})
		hi := sort.Search(len(refs), func(i int) bool { return refs[i].index > to })
		if lo >= hi {
			continue
		}
		buf, err := readRun(info.path, refs[lo:hi])
		if err != nil {
			db.cfg.Logger.Warn("tsdb: segment read failed", "path", info.path, "err", err)
			continue
		}
		out = append(out, run{path: info.path, refs: refs[lo:hi], buf: buf})
	}
	return out
}

// readRun reads the bytes of the consecutive records refs.
func readRun(path string, refs []recordRef) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	first, last := refs[0], refs[len(refs)-1]
	buf := make([]byte, last.offset+last.length-first.offset)
	if _, err := f.ReadAt(buf, first.offset); err != nil {
		return nil, err
	}
	return buf, nil
}

// decodeRuns decodes snapshot runs — without db.mu — into entries
// sorted by window index. A run whose bytes no longer match its index
// (the file was changed behind the store's back) keeps its valid
// prefix, as a torn segment does at Open.
func (db *DB) decodeRuns(runs []run) []Entry {
	var out []Entry
	for i := range runs {
		entries, ok := decodeRun(runs[i].buf, runs[i].refs)
		if !ok {
			db.cfg.Logger.Warn("tsdb: segment bytes do not match the record index", "path", runs[i].path)
		}
		runs[i].buf = nil // let the copy go as soon as it is decoded
		out = append(out, entries...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Window.Index < out[j].Window.Index })
	return out
}

// Entries returns the effective persisted records overlapping [from,
// to] in index order — raw windows where full resolution survives,
// compacted buckets where it does not. This is the backtest input.
func (db *DB) Entries(from, to int64) []Entry {
	db.mu.Lock()
	db.queries.Add(1)
	runs := db.snapshotLocked(from, to, false)
	db.mu.Unlock()
	return db.decodeRuns(runs)
}

// Bounds reports the lowest and highest window index with persisted
// data, or ok=false for an empty store.
func (db *DB) Bounds() (min, max int64, ok bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	infos := make([]*segmentInfo, 0, len(db.segments)+1)
	infos = append(infos, db.segments...)
	if db.actInfo != nil {
		infos = append(infos, db.actInfo)
	}
	for _, info := range infos {
		if info.records() == 0 {
			continue
		}
		if !ok || info.minIndex < min {
			min = info.minIndex
		}
		if info.endIndex-1 > max {
			max = info.endIndex - 1
		}
		ok = true
	}
	return min, max, ok
}

// bucketStart maps an entry to its query bucket.
func bucketStart(idx, from, step int64) int64 {
	if idx < from {
		idx = from
	}
	return from + ((idx-from)/step)*step
}

// Range merges the persisted records overlapping [from, to] into one
// window per step-sized bucket and returns the windows with their
// covered spans (sum of merged record spans — the dashboard uses it to
// render gaps). step must be >= 1 and to >= from.
func (db *DB) Range(from, to, step int64) ([]obs.Window, []int64, error) {
	if err := checkRange(from, to, step); err != nil {
		return nil, nil, err
	}
	entries := db.Entries(from, to)
	var windows []obs.Window
	var spans []int64
	for i := 0; i < len(entries); {
		b := bucketStart(entries[i].Window.Index, from, step)
		j := i
		var ws []obs.Window
		var span int64
		for ; j < len(entries) && bucketStart(entries[j].Window.Index, from, step) == b; j++ {
			ws = append(ws, entries[j].Window)
			span += entries[j].Span
		}
		merged, _ := obs.MergeWindowSet(ws, db.cfg.Quantiles)
		merged.Index = b
		windows = append(windows, merged)
		spans = append(spans, span)
		i = j
	}
	return windows, spans, nil
}

// Query re-aggregates one series over [from, to] at the given step,
// with quantiles extracted from the merged persisted sketches.
func (db *DB) Query(series string, from, to, step int64) ([]Point, error) {
	if err := checkRange(from, to, step); err != nil {
		return nil, err
	}
	entries := db.Entries(from, to)
	var points []Point
	for i := 0; i < len(entries); {
		b := bucketStart(entries[i].Window.Index, from, step)
		j := i
		agg := obs.Aggregate{}
		p := Point{Index: b}
		for ; j < len(entries) && bucketStart(entries[j].Window.Index, from, step) == b; j++ {
			e := entries[j]
			if sa, ok := e.Window.Series[series]; ok {
				agg = obs.MergeAggregates(agg, sa, db.cfg.Quantiles)
				p.Span += e.Span
				p.Windows += e.Windows
			}
		}
		i = j
		if p.Windows == 0 {
			continue
		}
		p.Count = agg.Count
		p.Sum = agg.Sum
		p.Mean = agg.Mean()
		p.Min = agg.Min
		p.Max = agg.Max
		p.Last = agg.Last
		p.Quantiles = agg.Quantiles
		points = append(points, p)
	}
	return points, nil
}

func checkRange(from, to, step int64) error {
	if from < 0 || to < 0 {
		return fmt.Errorf("tsdb: negative range [%d, %d]", from, to)
	}
	if to < from {
		return fmt.Errorf("tsdb: empty range [%d, %d]", from, to)
	}
	if step < 1 {
		return fmt.Errorf("tsdb: step %d < 1", step)
	}
	return nil
}
