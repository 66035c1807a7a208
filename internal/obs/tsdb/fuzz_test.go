package tsdb

import (
	"bytes"
	"testing"

	"blackboxval/internal/obs"
)

// FuzzSegmentDecode drives the segment decoder with arbitrary bytes —
// the read path every Open runs over files a crashed process may have
// torn anywhere. The decoder must never panic, must only surface
// entries that satisfy the record invariants, and must keep the valid
// prefix of a good segment that gained a corrupt tail.
func FuzzSegmentDecode(f *testing.F) {
	windows := seedWindows(f, 3)
	var seg bytes.Buffer
	seg.WriteString(segmentMagic)
	for _, w := range windows {
		rec, err := encodeRecord(Entry{Span: 1, Windows: 1, Window: w})
		if err != nil {
			f.Fatal(err)
		}
		seg.Write(rec)
	}
	valid := seg.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-7])             // torn tail
	f.Add([]byte(segmentMagic))             // empty segment
	f.Add([]byte("PPMTSDB1\x00\x00\x00"))   // short frame
	f.Add([]byte("not a segment at all"))   // garbage header
	f.Add(append([]byte{}, valid[4:]...))   // mis-aligned magic
	f.Add(bytes.Repeat([]byte{0xff}, 4096)) // saturated lengths

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, refs, _ := decodeSegment(data)
		for i, e := range entries {
			if e.Span <= 0 || e.Windows <= 0 || e.Window.Index < 0 {
				t.Fatalf("entry %d violates record invariants: %+v", i, e)
			}
		}
		// Reads go through the record index: every contiguous run of
		// records, read as one byte span, must decode to exactly the
		// whole-segment decode's entries — a single frame at its
		// offset/length being the one-record run.
		if len(refs) != len(entries) {
			t.Fatalf("%d index entries for %d records", len(refs), len(entries))
		}
		for i := range refs {
			for j := i + 1; j <= len(refs) && j <= i+8; j++ {
				span := data[refs[i].offset : refs[j-1].offset+refs[j-1].length]
				got, ok := decodeRun(span, refs[i:j])
				if !ok {
					t.Fatalf("records [%d, %d) do not decode through the index", i, j)
				}
				if a, b := canonical(t, got), canonical(t, entries[i:j]); a != b {
					t.Fatalf("records [%d, %d) through the index:\n got %s\nwant %s", i, j, a, b)
				}
			}
		}
		// Whatever survives a decode must re-encode into a segment that
		// decodes cleanly to the same entries — the stability contract
		// compaction relies on when it rewrites records it read back.
		if len(entries) > 0 {
			var re bytes.Buffer
			re.WriteString(segmentMagic)
			for _, e := range entries {
				rec, err := encodeRecord(e)
				if err != nil {
					t.Fatalf("re-encoding decoded entry: %v", err)
				}
				re.Write(rec)
			}
			again, _, reTruncated := decodeSegment(re.Bytes())
			if reTruncated {
				t.Fatal("re-encoded segment decodes as truncated")
			}
			if len(again) != len(entries) {
				t.Fatalf("re-encoded segment decodes to %d entries, want %d", len(again), len(entries))
			}
		}
	})
}

// seedWindows closes n real timeline windows for fuzz seeding
// (makeWindows wants a *testing.T, which testing.F cannot supply).
func seedWindows(f *testing.F, n int) []obs.Window {
	f.Helper()
	ts, err := obs.NewTimeSeries(obs.TimeSeriesConfig{Capacity: n + 1})
	if err != nil {
		f.Fatal(err)
	}
	var out []obs.Window
	ts.OnWindowClose(func(w obs.Window) { out = append(out, w) })
	for i := 0; i < n; i++ {
		ts.Record("estimate", 0.5+0.1*float64(i))
		ts.Record("alarm", float64(i%2))
		ts.Commit()
	}
	return out
}
