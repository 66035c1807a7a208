package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func journalSpan(trace, span, parent, name string) SpanJSON {
	return SpanJSON{
		Name: name, TraceID: trace, SpanID: span, ParentSpanID: parent,
		Start: time.Unix(1700000000, 0).UTC(), Seconds: 0.001,
	}
}

func TestJournalAppendRotateReload(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation quickly; 2 retained files bound the
	// disk no matter how many spans are appended.
	j, err := OpenJournal(dir, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		j.Append(journalSpan("aa01", fmt.Sprintf("%016x", i+1), "", "s"))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "spans-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 || len(files) > 2 {
		t.Fatalf("retained %d segments, want 1..2", len(files))
	}
	spans, err := ReadJournalDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 || len(spans) >= 50 {
		t.Fatalf("reload kept %d spans; rotation should have dropped the head but kept the tail", len(spans))
	}
	// Reopen resumes the newest segment instead of clobbering it (the
	// roomier bound keeps this append from rotating anything out).
	j2, err := OpenJournal(dir, 1<<16, 4)
	if err != nil {
		t.Fatal(err)
	}
	j2.Append(journalSpan("bb02", fmt.Sprintf("%016x", 99), "", "late"))
	j2.Close()
	after, err := ReadJournalDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(spans)+1 {
		t.Fatalf("resume lost spans: %d before, %d after", len(spans), len(after))
	}
	found := false
	for _, s := range after {
		if s.TraceID == "bb02" {
			found = true
		}
	}
	if !found {
		t.Fatal("resumed journal lost the appended span")
	}
}

func TestJournalSkipsCorruptLines(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(journalSpan("aa01", "0000000000000001", "", "good"))
	j.Close()
	files, _ := filepath.Glob(filepath.Join(dir, "spans-*.jsonl"))
	f, err := os.OpenFile(files[0], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("{torn write\n")
	f.WriteString(`{"name":"also-good","trace_id":"aa01","span_id":"0000000000000002"}` + "\n")
	f.Close()
	spans, err := ReadJournalDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2 (corrupt line skipped)", len(spans))
	}
}

// TestJournalConcurrentAppendAndRead drives sampled spans through a
// tracer while /debug/traces is read concurrently — the -race suite's
// guard for the journal's append path vs the stitch read path.
func TestJournalConcurrentAppendAndRead(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 1<<16, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	tr := NewTracer(16)
	tr.SetJournal(j)
	h := tr.TraceHandler("test")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tc := DeriveTraceContext(uint64(w), uint64(i), 1)
				ctx := ContextWithTrace(WithTracer(context.Background(), tr), tc)
				ctx, root := StartSpan(ctx, "root")
				_, child := StartSpan(ctx, "child")
				child.End()
				root.End()
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
				var listing struct {
					TraceIDs []string `json:"trace_ids"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
					t.Errorf("listing decode: %v", err)
					return
				}
				for _, id := range listing.TraceIDs {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/"+id, nil))
					if rec.Code != 200 && rec.Code != 404 {
						t.Errorf("trace fetch returned %d", rec.Code)
						return
					}
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if j.Appended() == 0 {
		t.Fatal("no spans reached the journal")
	}
}

// TestTraceMetricsLint registers the live trace families over two
// tracers sharing one journal: the render must pass the exposition
// linter and the shared journal must be counted once, not per tracer.
func TestTraceMetricsLint(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	a, b := NewTracer(4), NewTracer(4)
	a.SetJournal(j)
	b.SetJournal(j)
	for i, tr := range []*Tracer{a, b} {
		tc := DeriveTraceContext(9, uint64(i), 1)
		_, s := StartSpan(ContextWithTrace(WithTracer(context.Background(), tr), tc), "root")
		s.End()
	}
	reg := NewRegistry()
	RegisterTraceMetrics(reg, a, b)
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if errs := Lint(sb.String()); len(errs) != 0 {
		t.Fatalf("trace families fail lint: %v", errs)
	}
	if !strings.Contains(sb.String(), "ppm_trace_sampled_total 2") {
		t.Fatalf("expected 2 sampled roots:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "ppm_trace_journal_spans_total 2") {
		t.Fatalf("shared journal double-counted:\n%s", sb.String())
	}
}

// TestDebugSpansHygiene pins the /debug/spans contract: JSON content
// type, no-store caching, and a validated ?limit= parameter.
func TestDebugSpansHygiene(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 3; i++ {
		_, s := StartSpan(WithTracer(context.Background(), tr), fmt.Sprintf("span-%d", i))
		s.End()
	}
	h := tr.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get("Cache-Control"); got != "no-store" {
		t.Fatalf("Cache-Control = %q, want no-store", got)
	}
	if got := rec.Header().Get("Content-Type"); !strings.HasPrefix(got, "application/json") {
		t.Fatalf("Content-Type = %q, want application/json", got)
	}
	var all []json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &all); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(all) != 3 {
		t.Fatalf("got %d traces, want 3", len(all))
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans?limit=1", nil))
	var limited []json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &limited); err != nil {
		t.Fatalf("decode limited: %v", err)
	}
	if len(limited) != 1 {
		t.Fatalf("limit=1 returned %d traces", len(limited))
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans?limit=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("bogus limit: status %d, want 400", rec.Code)
	}
}

// FuzzReadJournalDir feeds an arbitrary spans-*.jsonl segment to the
// journal reader (ppm-diagnose -trace reads journals copied from other
// hosts): it must not panic, must return only named spans, and every
// trace it yields must stitch and render.
func FuzzReadJournalDir(f *testing.F) {
	good, err := json.Marshal(SpanJSON{Name: "gateway_request", TraceID: "t1", SpanID: "s1",
		Children: []SpanJSON{{Name: "gateway_relay", SpanID: "s2"}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(good, '\n'))
	f.Add([]byte(`{"name":"a","trace_id":"t","span_id":"x","parent_span_id":"y"}` + "\n" +
		`{"name":"b","trace_id":"t","span_id":"y","parent_span_id":"x"}` + "\n{\"name\":"))
	f.Add([]byte("\n\n{}\n{\"name\":\"\"}\nnot json\n"))
	f.Fuzz(func(t *testing.T, segment []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "spans-000001.jsonl"), segment, 0o644); err != nil {
			t.Fatal(err)
		}
		spans, err := ReadJournalDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range spans {
			if s.Name == "" {
				t.Fatalf("unnamed span returned: %+v", s)
			}
			w, err := StitchTrace(s.TraceID, []TraceFragment{{Service: "fuzz", Spans: spans}})
			if err != nil {
				continue
			}
			w.Markdown()
			w.HTML()
		}
	})
}
