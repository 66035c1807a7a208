package tsdb

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"blackboxval/internal/obs"
)

// makeWindows closes n one-batch windows from a real TimeSeries so the
// persisted payloads carry genuine sketches, exact sums and quantiles.
func makeWindows(t *testing.T, n int, seed int64) []obs.Window {
	t.Helper()
	ts, err := obs.NewTimeSeries(obs.TimeSeriesConfig{Capacity: n + 1})
	if err != nil {
		t.Fatal(err)
	}
	var out []obs.Window
	ts.OnWindowClose(func(w obs.Window) { out = append(out, w) })
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		for j := 0; j < 8; j++ {
			ts.Record("estimate", 0.7+0.3*rng.Float64())
			ts.Record("ks_max", 0.4*rng.Float64())
		}
		ts.Record("alarm", float64(i%7/6)) // spikes to 1 every 7th window
		ts.Commit()
	}
	if len(out) != n {
		t.Fatalf("made %d windows, want %d", len(out), n)
	}
	return out
}

func openTestDB(t *testing.T, dir string, mutate func(*Config)) *DB {
	t.Helper()
	cfg := Config{Dir: dir}
	if mutate != nil {
		mutate(&cfg)
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func canonical(t *testing.T, v any) string {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

func TestAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	windows := makeWindows(t, 10, 1)
	db := openTestDB(t, dir, nil)
	for _, w := range windows {
		db.Append(w)
	}
	if got := db.Appended(); got != 10 {
		t.Fatalf("Appended() = %d, want 10", got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openTestDB(t, dir, nil)
	defer db2.Close()
	min, max, ok := db2.Bounds()
	if !ok || min != 0 || max != 9 {
		t.Fatalf("Bounds() = %d, %d, %v; want 0, 9, true", min, max, ok)
	}
	entries := db2.Entries(0, 9)
	if len(entries) != 10 {
		t.Fatalf("Entries returned %d records, want 10", len(entries))
	}
	for i, e := range entries {
		if e.Span != 1 || e.Windows != 1 {
			t.Fatalf("entry %d: span=%d windows=%d, want 1/1", i, e.Span, e.Windows)
		}
		// Bit-equality in canonical JSON: the persisted window is the
		// live window.
		if got, want := canonical(t, e.Window), canonical(t, windows[i]); got != want {
			t.Fatalf("window %d round-trip mismatch:\n got %s\nwant %s", i, got, want)
		}
	}
}

func TestRotationAndFreshSegmentPerProcess(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir, func(c *Config) { c.SegmentBytes = 8 << 10; c.Downsample = 1 })
	for _, w := range makeWindows(t, 20, 2) {
		db.Append(w)
	}
	st := db.Stats()
	if st.Segments < 3 {
		t.Fatalf("got %d segments, want rotation to produce at least 3", st.Segments)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	before, _ := filepath.Glob(filepath.Join(dir, "seg-L0-*.seg"))

	// A new process never appends into an old file.
	db2 := openTestDB(t, dir, func(c *Config) { c.Downsample = 1 })
	defer db2.Close()
	db2.Append(makeWindows(t, 21, 3)[20])
	after, _ := filepath.Glob(filepath.Join(dir, "seg-L0-*.seg"))
	if len(after) != len(before)+1 {
		t.Fatalf("reopen+append: %d segments, want %d (fresh active segment)", len(after), len(before)+1)
	}
	if got := len(db2.Entries(0, 20)); got != 21 {
		t.Fatalf("Entries = %d records, want 21", got)
	}
}

func TestTornSegmentRecovery(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir, func(c *Config) { c.Downsample = 1 })
	windows := makeWindows(t, 6, 4)
	for _, w := range windows {
		db.Append(w)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail of the only segment: chop into the final record and
	// append garbage, as a crash mid-write would.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-L0-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("got %d segments, want 1", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	torn := append(data[:len(data)-10:len(data)-10], []byte("garbage")...)
	if err := os.WriteFile(segs[0], torn, 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := openTestDB(t, dir, func(c *Config) { c.Downsample = 1 })
	defer db2.Close()
	if got := db2.CorruptSegments(); got != 1 {
		t.Fatalf("CorruptSegments() = %d, want 1", got)
	}
	// The valid prefix survives; the torn record is gone.
	entries := db2.Entries(0, 5)
	if len(entries) != 5 {
		t.Fatalf("Entries = %d records, want the 5 of the valid prefix", len(entries))
	}
	// Appends resume on a fresh segment past the high-water mark.
	db2.Append(windows[5])
	if got := len(db2.Entries(0, 5)); got != 6 {
		t.Fatalf("after resumed append: %d records, want 6", got)
	}
}

func TestFullyCorruptSegmentSkipped(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-L0-00000000.seg"), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	db := openTestDB(t, dir, nil)
	defer db.Close()
	if got := db.CorruptSegments(); got != 1 {
		t.Fatalf("CorruptSegments() = %d, want 1", got)
	}
	if _, _, ok := db.Bounds(); ok {
		t.Fatal("Bounds() reported data in an all-corrupt store")
	}
	db.Append(makeWindows(t, 1, 5)[0])
	if got := len(db.Entries(0, 0)); got != 1 {
		t.Fatalf("append after corrupt scan: %d records, want 1", got)
	}
}

// shortWriter fails the writes numbered in failOn (counting from 0)
// after writing half of the frame, as a disk filling up mid-write
// would; with failTruncate the cleanup fails too.
type shortWriter struct {
	*os.File
	writes       int
	failOn       map[int]bool
	failTruncate bool
}

func (w *shortWriter) WriteAt(p []byte, off int64) (int, error) {
	w.writes++
	if w.failOn[w.writes-1] {
		n, _ := w.File.WriteAt(p[:len(p)/2], off)
		return n, syscall.ENOSPC
	}
	return w.File.WriteAt(p, off)
}

func (w *shortWriter) Truncate(size int64) error {
	if w.failTruncate {
		return syscall.EIO
	}
	return w.File.Truncate(size)
}

// A write that fails part-way must not strand the records after it or
// leave a torn tail: the partial frame is cut off (or, if that fails
// too, the segment is sealed at its last whole frame and appends go on
// in a fresh one), so every other append stays readable now and after
// a reopen.
func TestShortWriteKeepsWholeFrames(t *testing.T) {
	for _, tc := range []struct {
		name         string
		failOn       map[int]bool // of the appends of windows 3, 4, 5
		failTruncate bool
		want         []int
		corrupt      uint64 // segments the reopen must count as torn
	}{
		{"truncated", map[int]bool{0: true, 2: true}, false, []int{0, 1, 2, 4}, 0},
		{"rolled", map[int]bool{0: true}, true, []int{0, 1, 2, 4, 5}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			windows := makeWindows(t, 6, 12)
			db := openTestDB(t, dir, func(c *Config) { c.Downsample = 1 })
			for _, w := range windows[:3] {
				db.Append(w)
			}
			db.mu.Lock()
			db.active = &shortWriter{File: db.active.(*os.File), failOn: tc.failOn, failTruncate: tc.failTruncate}
			db.mu.Unlock()
			for _, w := range windows[3:] {
				db.Append(w)
			}
			if got, want := db.appendErrors.Load(), uint64(len(tc.failOn)); got != want {
				t.Fatalf("append errors = %d, want %d", got, want)
			}
			var wantWs []obs.Window
			for _, i := range tc.want {
				wantWs = append(wantWs, windows[i])
			}
			check := func(db *DB) {
				t.Helper()
				var got []obs.Window
				for _, e := range db.Entries(0, 5) {
					got = append(got, e.Window)
				}
				if g, w := canonical(t, got), canonical(t, wantWs); g != w {
					t.Fatalf("entries after a short write:\n got %.300s\nwant %.300s", g, w)
				}
			}
			check(db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2 := openTestDB(t, dir, func(c *Config) { c.Downsample = 1 })
			defer db2.Close()
			if got := db2.CorruptSegments(); got != tc.corrupt {
				t.Fatalf("CorruptSegments() = %d after reopen, want %d", got, tc.corrupt)
			}
			check(db2)
		})
	}
}

func TestOutOfOrderAppendDropped(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir, nil)
	defer db.Close()
	windows := makeWindows(t, 3, 6)
	db.Append(windows[0])
	db.Append(windows[1])
	db.Append(windows[0]) // straggler
	if got := db.Appended(); got != 2 {
		t.Fatalf("Appended() = %d, want 2 (straggler dropped)", got)
	}
	if got := db.appendErrors.Load(); got != 1 {
		t.Fatalf("append errors = %d, want 1", got)
	}
}

func TestRetentionBytes(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir, func(c *Config) {
		c.SegmentBytes = 8 << 10
		c.RetentionBytes = 24 << 10
		c.Downsample = 1
	})
	for _, w := range makeWindows(t, 60, 7) {
		db.Append(w)
	}
	// Retention runs on the maintenance goroutine; Close returns once
	// every pass the rotations asked for has run.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Bytes > 40<<10 {
		t.Fatalf("retention kept %d bytes, want bounded near 24KiB", st.Bytes)
	}
	if db.retentionDeletes.Load() == 0 {
		t.Fatal("retention deleted nothing")
	}
	min, _, ok := db.Bounds()
	if !ok || min == 0 {
		t.Fatalf("oldest data should be gone; Bounds min = %d, ok = %v", min, ok)
	}
}

func TestCompactionDownsamplesOldHistory(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir, func(c *Config) {
		c.SegmentBytes = 8 << 10
		c.Downsample = 4
		c.CompactAfter = 4
	})
	windows := makeWindows(t, 32, 8)
	for _, w := range windows {
		db.Append(w)
	}
	db.Compact()
	entries := db.Entries(0, 31)
	var rawCount, compacted int
	covered := int64(0)
	seen := int64(0)
	for _, e := range entries {
		if e.Window.Index != seen {
			t.Fatalf("entry coverage gap: got index %d, want %d", e.Window.Index, seen)
		}
		seen = e.end()
		covered += e.Span
		if e.Span == 1 {
			rawCount++
		} else {
			if e.Span != 4 {
				t.Fatalf("compacted span = %d, want 4", e.Span)
			}
			compacted++
		}
	}
	if covered != 32 {
		t.Fatalf("entries cover %d indices, want 32", covered)
	}
	if compacted == 0 {
		t.Fatal("no compacted buckets produced")
	}
	if rawCount < 4 {
		t.Fatalf("head guard kept %d raw windows, want >= CompactAfter", rawCount)
	}
	// A compacted bucket equals the merge of its raw windows.
	first := entries[0]
	if first.Span != 4 || first.Windows != 4 {
		t.Fatalf("first entry span=%d windows=%d, want 4/4", first.Span, first.Windows)
	}
	want, _ := obs.MergeWindowSet(windows[0:4], db.Quantiles())
	want.Index = 0
	if got, exp := canonical(t, first.Window), canonical(t, want); got != exp {
		t.Fatalf("compacted bucket != merged raw windows:\n got %s\nwant %s", got, exp)
	}
	// Compacted raw segments are deleted once shadowed.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	raws, _ := filepath.Glob(filepath.Join(dir, "seg-L0-*.seg"))
	for _, p := range raws {
		data, _ := os.ReadFile(p)
		es, _, _ := decodeSegment(data)
		for _, e := range es {
			if e.end() <= 24 { // compactedThrough for 32 windows, K=4, guard 4
				t.Fatalf("segment %s still holds shadowed raw window %d", filepath.Base(p), e.Window.Index)
			}
		}
	}
}

func TestQueryReaggregation(t *testing.T) {
	dir := t.TempDir()
	windows := makeWindows(t, 16, 9)
	db := openTestDB(t, dir, func(c *Config) { c.Downsample = 1 })
	defer db.Close()
	for _, w := range windows {
		db.Append(w)
	}
	points, err := db.Query("estimate", 0, 15, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	for i, p := range points {
		if p.Index != int64(i*4) || p.Span != 4 || p.Windows != 4 {
			t.Fatalf("point %d = {index %d span %d windows %d}, want {%d 4 4}", i, p.Index, p.Span, p.Windows, i*4)
		}
		// Re-aggregation equals merging the same raw aggregates.
		var want obs.Aggregate
		for _, w := range windows[i*4 : i*4+4] {
			want = obs.MergeAggregates(want, w.Series["estimate"], db.Quantiles())
		}
		if p.Count != want.Count || p.Sum != want.Sum || p.Min != want.Min || p.Max != want.Max || p.Last != want.Last {
			t.Fatalf("point %d aggregate mismatch: got %+v", i, p)
		}
		if got, exp := canonical(t, p.Quantiles), canonical(t, want.Quantiles); got != exp {
			t.Fatalf("point %d quantiles: got %s, want %s", i, got, exp)
		}
	}
	// Range at step=1 returns the raw windows unchanged apart from the
	// deep copy through the merge identity.
	ws, spans, err := db.Range(4, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 4 || len(spans) != 4 {
		t.Fatalf("Range returned %d windows, want 4", len(ws))
	}
	for i, w := range ws {
		if spans[i] != 1 {
			t.Fatalf("span[%d] = %d, want 1", i, spans[i])
		}
		if got, exp := canonical(t, w.Series), canonical(t, windows[4+i].Series); got != exp {
			t.Fatalf("Range window %d series mismatch", i)
		}
	}
	if _, err := db.Query("estimate", 5, 2, 1); err == nil ||
		!strings.Contains(err.Error(), "empty range") {
		t.Fatalf("inverted range error = %v, want empty range", err)
	}
	if _, err := db.Query("estimate", 0, 5, 0); err == nil {
		t.Fatal("step 0 accepted")
	}
}

func TestRegisterMetricsLints(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir, nil)
	defer db.Close()
	db.Append(makeWindows(t, 1, 10)[0])
	reg := obs.NewRegistry()
	db.RegisterMetrics(reg)
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if errs := obs.Lint(sb.String()); len(errs) != 0 {
		t.Fatalf("ppm_tsdb_* exposition fails lint: %v", errs)
	}
	if !strings.Contains(sb.String(), "ppm_tsdb_appended_windows_total 1") {
		t.Fatalf("exposition missing append count:\n%s", sb.String())
	}
}

func TestOpenReadOnly(t *testing.T) {
	dir := t.TempDir()
	windows := makeWindows(t, 12, 11)
	db := openTestDB(t, dir, func(c *Config) { c.SegmentBytes = 8 << 10; c.Downsample = 1 })
	for _, w := range windows {
		db.Append(w)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// A leftover compaction temp file must survive a read-only open.
	tmp := filepath.Join(dir, "seg-L1-99999999.seg.tmp")
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	before, _ := filepath.Glob(filepath.Join(dir, "*"))

	ro, err := OpenReadOnly(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	min, max, ok := ro.Bounds()
	if !ok || min != 0 || max != 11 {
		t.Fatalf("Bounds() = %d, %d, %v; want 0, 11, true", min, max, ok)
	}
	if got := len(ro.Entries(0, 11)); got != 12 {
		t.Fatalf("Entries = %d records, want 12", got)
	}
	ro.Append(windows[0]) // dropped: the store is a pure reader
	if got := ro.Appended(); got != 0 {
		t.Fatalf("read-only Append persisted %d windows", got)
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	after, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(after) != len(before) {
		t.Fatalf("read-only open changed the directory: %d files -> %d", len(before), len(after))
	}
}
