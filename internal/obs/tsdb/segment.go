package tsdb

// segment.go: the on-disk record format. A segment is one append-only
// file of framed records; each record is the canonical JSON of an Entry
// (one persisted timeline window, raw or compacted) guarded by a CRC32
// so a torn tail from a crash mid-write is detected and skipped rather
// than poisoning the read path. The JSON payload is canonical because
// encoding/json emits struct fields in declaration order and map keys
// sorted, and the sketch/exact-sum fields marshal via their own
// canonical encoders (DESIGN.md §8) — so byte equality of records is
// equality of the persisted windows, which is what the compaction
// determinism suite asserts.
//
// Layout:
//
//	segment  = magic record*
//	magic    = "PPMTSDB1" (8 bytes)
//	record   = u32(len payload) u32(crc32-IEEE payload) payload
//	payload  = canonical JSON of Entry
//
// Integers are little-endian. Decoding stops at the first anomaly
// (short frame, CRC mismatch, invalid JSON, zero/oversized length) and
// keeps the valid prefix; the caller counts the truncation. The DB
// keeps a recordRef per record in memory, so a read decodes only the
// frames it needs, and decodeFrame checks each one exactly as the
// whole-file decode does.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"regexp"
	"strconv"

	"blackboxval/internal/obs"
)

const (
	segmentMagic = "PPMTSDB1"
	// maxRecordBytes bounds a single decoded record; a window payload is
	// typically tens of KB (sketch buckets dominate), so anything near
	// this limit is corruption, not data.
	maxRecordBytes = 64 << 20
)

// Entry is one persisted window. Span is the number of consecutive
// timeline indices the record covers, starting at Window.Index: 1 for a
// raw append, the downsampling factor K for a compacted bucket. Windows
// counts the raw windows folded into the record (gaps inside a
// compacted bucket make Windows < Span).
type Entry struct {
	Span    int64      `json:"span"`
	Windows int64      `json:"windows"`
	Window  obs.Window `json:"window"`
}

// end returns the exclusive end of the index range the entry covers.
func (e Entry) end() int64 { return e.Window.Index + e.Span }

// encodeRecord frames one entry for appending to a segment.
func encodeRecord(e Entry) ([]byte, error) {
	payload, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("tsdb: encode window %d: %w", e.Window.Index, err)
	}
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[8:], payload)
	return buf, nil
}

// recordRef locates one record in its segment file: the window indices
// [index, end) it covers and its whole frame, header included, at
// [offset, offset+length). Records sit in a segment in index order, so
// a segment's refs are sorted by index and by offset alike.
type recordRef struct {
	index, end     int64
	offset, length int64
}

// decodeFrame decodes the record frame at the start of buf and returns
// it with the frame's length, or ok=false on a short or oversized
// frame, a CRC mismatch, invalid JSON or a payload that breaks the
// record invariants. Every read of persisted records goes through it.
func decodeFrame(buf []byte) (e Entry, n int, ok bool) {
	if len(buf) < 8 {
		return Entry{}, 0, false
	}
	size := binary.LittleEndian.Uint32(buf[0:4])
	sum := binary.LittleEndian.Uint32(buf[4:8])
	if size == 0 || size > maxRecordBytes || int64(size) > int64(len(buf)-8) {
		return Entry{}, 0, false
	}
	payload := buf[8 : 8+int(size)]
	if crc32.ChecksumIEEE(payload) != sum {
		return Entry{}, 0, false
	}
	if err := json.Unmarshal(payload, &e); err != nil {
		return Entry{}, 0, false
	}
	if e.Span <= 0 || e.Windows <= 0 || e.Window.Index < 0 {
		return Entry{}, 0, false
	}
	return e, 8 + int(size), true
}

// decodeSegment parses a whole segment file. It returns every record of
// the valid prefix with the index locating each one, and whether the
// file ended cleanly; truncated=true means a torn or corrupt tail (or a
// missing/garbled header) was detected and everything from that point
// on was skipped.
func decodeSegment(data []byte) (entries []Entry, refs []recordRef, truncated bool) {
	if len(data) < len(segmentMagic) || string(data[:len(segmentMagic)]) != segmentMagic {
		return nil, nil, true
	}
	off := len(segmentMagic)
	for off < len(data) {
		e, n, ok := decodeFrame(data[off:])
		if !ok {
			return entries, refs, true
		}
		entries = append(entries, e)
		refs = append(refs, recordRef{index: e.Window.Index, end: e.end(), offset: int64(off), length: int64(n)})
		off += n
	}
	return entries, refs, false
}

// decodeRun decodes buf, the bytes of the consecutive records refs
// (refs[0].offset maps to buf[0]), checking every frame against its
// index entry. On the first mismatch it returns the entries before it
// and false.
func decodeRun(buf []byte, refs []recordRef) ([]Entry, bool) {
	entries := make([]Entry, 0, len(refs))
	for _, r := range refs {
		at := r.offset - refs[0].offset
		if at < 0 || at > int64(len(buf)) {
			return entries, false
		}
		e, n, ok := decodeFrame(buf[at:])
		if !ok || int64(n) != r.length || e.Window.Index != r.index || e.end() != r.end {
			return entries, false
		}
		entries = append(entries, e)
	}
	return entries, true
}

// Segment file names: seg-L<level>-<seq>.seg, zero-padded so a
// lexicographic directory sort is also a sequence sort. Level 0 holds
// raw appends, level 1 compacted buckets.
var segmentNameRe = regexp.MustCompile(`^seg-L([01])-(\d{8})\.seg$`)

func segmentName(level int, seq uint64) string {
	return fmt.Sprintf("seg-L%d-%08d.seg", level, seq)
}

// parseSegmentName reports the level and sequence number of a segment
// file name, or ok=false for foreign files.
func parseSegmentName(path string) (level int, seq uint64, ok bool) {
	m := segmentNameRe.FindStringSubmatch(filepath.Base(path))
	if m == nil {
		return 0, 0, false
	}
	level, _ = strconv.Atoi(m[1])
	seq, err := strconv.ParseUint(m[2], 10, 64)
	if err != nil {
		return 0, 0, false
	}
	return level, seq, true
}
