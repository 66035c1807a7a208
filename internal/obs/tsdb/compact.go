package tsdb

// compact.go: deterministic downsampling. Old raw windows are folded
// into one record per K-aligned index bucket [b*K, (b+1)*K) by
// obs.MergeWindowSet — the same associative merge the federation layer
// uses — so the compacted record is a pure function of the raw windows
// in the bucket, independent of when (or in how many passes) compaction
// ran. That is the associativity contract of DESIGN.md §8/§13 extended
// to the time axis (§17): eager, lazy and randomized compaction
// schedules produce bit-identical canonical JSON, which the determinism
// suite asserts.
//
// Eligibility keeps the contract schedule-free: a bucket compacts only
// when it is sealed — every index it covers is (a) in a closed segment
// (the active segment is still being written) and (b) older than the
// CompactAfter head guard, so no future append can land inside it.
// Crash safety: the compacted segment is written complete to a temp
// file, synced, then renamed into place before any covered raw segment
// is deleted; a crash in between leaves shadowed duplicates that the
// next Open resolves via the compactedThrough watermark.
//
// Scheduling: Append never compacts. When it seals a full segment it
// signals the goroutine the DB owns (maintainLoop), which runs
// compaction and then retention. A pass holds db.mu only to plan (copy
// the raw bytes of the eligible buckets) and to install (rename, list
// the segment, advance compactedThrough, drop shadowed raw segments,
// enforce retention); the merge, encode and fsync in between hold only
// maintMu, which serializes passes with explicit Compact calls.

import (
	"os"
	"path/filepath"

	"blackboxval/internal/obs"
)

// maintainLoop is the DB's maintenance goroutine: one compaction and
// retention pass per request from rotateLocked. On stop it runs a
// pending request before it exits, so after Close every rotation has
// had its pass.
func (db *DB) maintainLoop() {
	defer close(db.done)
	for {
		select {
		case <-db.wake:
			db.maintain()
		case <-db.stop:
			select {
			case <-db.wake:
				db.maintain()
			default:
			}
			return
		}
	}
}

// maintain runs one compaction pass followed by retention enforcement,
// serialized with every other pass.
func (db *DB) maintain() {
	db.maintMu.Lock()
	defer db.maintMu.Unlock()
	db.compact()
}

// Compact runs one compaction pass followed by retention enforcement,
// synchronously. The maintenance goroutine runs the same pass after
// every segment rotation; calling it explicitly (tests, ppm-backtest
// maintenance) is safe at any time and cannot change what queries
// observe, only how it is stored.
func (db *DB) Compact() {
	db.maintMu.Lock()
	defer db.maintMu.Unlock()
	db.mu.Lock()
	closed := db.closed
	db.mu.Unlock()
	if !closed {
		db.compact()
	}
}

// compact folds every sealed, not-yet-compacted bucket into a new
// level-1 segment, then enforces retention. The caller holds maintMu,
// so nothing else compacts or deletes segments meanwhile. It takes
// db.mu twice: to plan (pick the buckets and copy their raw records'
// bytes) and to install the result; the decode, merge, encode and
// fsync run between the two, while appends and queries go on.
func (db *DB) compact() {
	db.mu.Lock()
	k := int64(db.cfg.Downsample)
	start, bucketEnd := db.compactableLocked()
	if start >= bucketEnd {
		db.retainLocked()
		db.mu.Unlock()
		return
	}
	runs := db.snapshotLocked(start, bucketEnd-1, true)
	var path string
	var seq uint64
	if len(runs) > 0 {
		seq = db.nextSeq
		db.nextSeq++
		path = filepath.Join(db.cfg.Dir, segmentName(1, seq))
	}
	db.mu.Unlock()

	raw := db.decodeRuns(runs)
	var out []Entry
	var folded uint64
	for b, i := start, 0; b < bucketEnd; b += k {
		j := i
		for j < len(raw) && raw[j].Window.Index < b+k {
			j++
		}
		if j == i {
			continue // an empty bucket never becomes a record
		}
		ws := make([]obs.Window, 0, j-i)
		for _, e := range raw[i:j] {
			ws = append(ws, e.Window)
		}
		merged, _ := obs.MergeWindowSet(ws, db.cfg.Quantiles)
		merged.Index = b
		out = append(out, Entry{Span: k, Windows: int64(len(ws)), Window: merged})
		folded += uint64(len(ws))
		i = j
	}
	var info *segmentInfo
	var err error
	if len(out) > 0 {
		info, err = writeCompacted(path, seq, out)
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	if info != nil && err == nil {
		if err = os.Rename(path+".tmp", path); err != nil {
			os.Remove(path + ".tmp")
		}
	}
	if err != nil {
		db.cfg.Logger.Warn("tsdb: compaction failed", "err", err)
	} else {
		if info != nil {
			db.segments = append(db.segments, info)
			db.compactions.Add(1)
			db.compactedWindows.Add(folded)
		}
		db.compactedThrough = bucketEnd
		db.dropShadowedLocked()
	}
	db.retainLocked()
}

// compactableLocked returns the index range [start, bucketEnd) of the
// sealed buckets not yet compacted (empty when start >= bucketEnd).
func (db *DB) compactableLocked() (start, bucketEnd int64) {
	k := int64(db.cfg.Downsample)
	if k <= 1 {
		return 0, 0
	}
	// Raw windows are compactable only below both caps: the closed-
	// segment frontier and the head guard of full-resolution windows.
	var closedEnd int64
	for _, info := range db.segments {
		if info.level == 0 && info.records() > 0 && info.endIndex > closedEnd {
			closedEnd = info.endIndex
		}
	}
	limit := closedEnd
	if head := db.lastIndex + 1 - int64(db.cfg.CompactAfter); head < limit {
		limit = head
	}
	return ((db.compactedThrough + k - 1) / k) * k, (limit / k) * k
}

// writeCompacted encodes entries as the level-1 segment seq and writes
// it complete to path+".tmp", fsynced; the caller renames it into
// place.
func writeCompacted(path string, seq uint64, entries []Entry) (*segmentInfo, error) {
	info := &segmentInfo{path: path, level: 1, seq: seq}
	buf := []byte(segmentMagic)
	for _, e := range entries {
		rec, err := encodeRecord(e)
		if err != nil {
			return nil, err
		}
		info.add(e, recordRef{index: e.Window.Index, end: e.end(), offset: int64(len(buf)), length: int64(len(rec))})
		buf = append(buf, rec...)
	}
	info.bytes = int64(len(buf))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	return info, nil
}
