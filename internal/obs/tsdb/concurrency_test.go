package tsdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentReadsDuringMaintenance runs every reader against a live
// appender on a store small enough that segments rotate every three
// windows, so background compaction and retention run throughout.
// Readers ask for K-aligned ranges near the head, which retention
// (sized to keep far more than that) cannot reach: every answer must
// cover exactly the windows asked for, in order, and every step=K
// answer must equal the same query on an uncompacted reference store.
func TestConcurrentReadsDuringMaintenance(t *testing.T) {
	const k, recent = 4, 32 // readers stay within the newest 32 windows
	n := 400
	if testing.Short() {
		n = 240
	}
	windows := makeWindows(t, n, 45)
	ref := openTestDB(t, t.TempDir(), func(c *Config) { c.Downsample = 1 })
	defer ref.Close()
	for _, w := range windows {
		ref.Append(w)
	}
	db := openTestDB(t, t.TempDir(), func(c *Config) {
		// Three raw windows per segment: segment edges fall inside
		// K-buckets, so shadowed raw records outlive their segments.
		c.SegmentBytes = 5 << 10
		c.RetentionBytes = 96 << 10
		c.Downsample = k
		c.CompactAfter = k
	})

	var head atomic.Int64 // newest appended index
	head.Store(-1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i, w := range windows {
			db.Append(w)
			head.Store(w.Index)
			if i%50 == 49 {
				db.Compact() // explicit passes serialize with the goroutine's
			}
		}
	}()

	// readRange checks one K-aligned range [from, to] near the head.
	readRange := func(reader int, from, to int64) error {
		next := from
		for _, e := range db.Entries(from, to) {
			if e.Window.Index != next || (e.Span != 1 && e.Span != k) || e.Windows != e.Span {
				return fmt.Errorf("Entries(%d, %d): record {index %d span %d windows %d}, want index %d",
					from, to, e.Window.Index, e.Span, e.Windows, next)
			}
			next = e.end()
		}
		if next != to+1 {
			return fmt.Errorf("Entries(%d, %d) covers up to %d", from, to, next-1)
		}
		ws, spans, err := db.Range(from, to, k)
		if err != nil {
			return err
		}
		want, wantSpans, _ := ref.Range(from, to, k)
		if !sameJSON([2]any{ws, spans}, [2]any{want, wantSpans}) {
			return fmt.Errorf("Range(%d, %d, %d) != uncompacted reference", from, to, k)
		}
		series := []string{"estimate", "ks_max", "alarm"}[reader%3]
		pts, err := db.Query(series, from, to, k)
		if err != nil {
			return err
		}
		wantPts, _ := ref.Query(series, from, to, k)
		if !sameJSON(pts, wantPts) {
			return fmt.Errorf("Query(%s, %d, %d, %d) != uncompacted reference", series, from, to, k)
		}
		return nil
	}

	var reads atomic.Int64
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for m := int64(1); ; m = m%(recent/k) + 1 {
				select {
				case <-done:
					return
				default:
				}
				end := (head.Load() + 1) / k * k // exclusive, aligned
				if from := end - m*k; from >= 0 {
					if err := readRange(r, from, end-1); err != nil {
						t.Error(err)
						return
					}
					reads.Add(1)
				}
				if min, max, ok := db.Bounds(); ok && min > max {
					t.Errorf("Bounds() = %d > %d", min, max)
					return
				}
				db.Stats()
			}
		}(r)
	}
	wg.Wait()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d range reads, %d compactions, %d retention deletes",
		reads.Load(), db.compactions.Load(), db.retentionDeletes.Load())
	if reads.Load() == 0 {
		t.Fatal("no reader overlapped the appends")
	}
	if db.compactions.Load() == 0 || db.retentionDeletes.Load() == 0 {
		t.Fatalf("compactions=%d retention deletes=%d; both must fire for the test to mean anything",
			db.compactions.Load(), db.retentionDeletes.Load())
	}
}

// sameJSON reports whether a and b have the same canonical JSON. Unlike
// canonical it never calls t.Fatal, so reader goroutines can use it.
func sameJSON(a, b any) bool {
	x, errA := json.Marshal(a)
	y, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(x, y)
}
