package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// fleetFragments models the demo topology: traffic → gateway (relay
// child) → backend predict, with the shadow monitor_observe hanging
// off the relay's trace, each in its own process journal.
func fleetFragments(trace string) []TraceFragment {
	t0 := time.Unix(1700000000, 0).UTC()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	return []TraceFragment{
		{Service: "gateway", Spans: []SpanJSON{
			{
				Name: "gateway_request", TraceID: trace,
				SpanID: "aaaaaaaaaaaaaaa1", ParentSpanID: "cccccccccccccc99",
				Start: at(0), Seconds: 0.040,
				Children: []SpanJSON{{
					Name: "gateway_relay", SpanID: "aaaaaaaaaaaaaaa2",
					ParentSpanID: "aaaaaaaaaaaaaaa1", Start: at(2), Seconds: 0.030,
				}},
			},
		}},
		{Service: "backend", Spans: []SpanJSON{
			{
				Name: "backend_predict", TraceID: trace,
				SpanID: "bbbbbbbbbbbbbbb1", ParentSpanID: "aaaaaaaaaaaaaaa2",
				Start: at(5), Seconds: 0.020,
			},
		}},
		{Service: "monitor", Spans: []SpanJSON{
			{
				Name: "monitor_observe", TraceID: trace,
				SpanID: "dddddddddddddddd", ParentSpanID: "aaaaaaaaaaaaaaa1",
				Start: at(45), Seconds: 0.010,
			},
		}},
	}
}

func TestStitchTraceAcrossFragments(t *testing.T) {
	const trace = "4bf92f3577b34da6a3ce929d0e0e4736"
	wf, err := StitchTrace(trace, fleetFragments(trace))
	if err != nil {
		t.Fatal(err)
	}
	if wf.TraceID != trace {
		t.Fatalf("trace id %q", wf.TraceID)
	}
	if len(wf.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(wf.Rows))
	}
	// The client's synthetic span id (cccc...99) exists in no journal,
	// so gateway_request is promoted to the single root and every other
	// span hangs off it.
	if wf.Roots != 1 {
		t.Fatalf("got %d roots, want 1", wf.Roots)
	}
	byName := map[string]WaterfallRow{}
	for _, r := range wf.Rows {
		byName[r.Span.Name] = r
	}
	for name, svc := range map[string]string{
		"gateway_request": "gateway",
		"gateway_relay":   "gateway",
		"backend_predict": "backend",
		"monitor_observe": "monitor",
	} {
		row, ok := byName[name]
		if !ok {
			t.Fatalf("span %s missing from waterfall", name)
		}
		if row.Service != svc {
			t.Fatalf("span %s attributed to %q, want %q", name, row.Service, svc)
		}
	}
	if byName["gateway_request"].Depth != 0 || !byName["gateway_request"].Root {
		t.Fatal("gateway_request should be the depth-0 root")
	}
	if byName["gateway_relay"].Depth != 1 || byName["monitor_observe"].Depth != 1 {
		t.Fatal("relay and observe should sit at depth 1 under the request")
	}
	if byName["backend_predict"].Depth != 2 {
		t.Fatalf("backend_predict depth %d, want 2 (child of the relay)", byName["backend_predict"].Depth)
	}
	// Cross-process ordering: offsets are relative to the earliest
	// span, so the root starts at 0.
	if byName["gateway_request"].OffsetSeconds != 0 {
		t.Fatalf("root offset %f", byName["gateway_request"].OffsetSeconds)
	}
}

func TestStitchDedupAndMissingTrace(t *testing.T) {
	const trace = "4bf92f3577b34da6a3ce929d0e0e4736"
	frags := fleetFragments(trace)
	// The same fragment journaled twice (ring + journal overlap) must
	// not duplicate rows.
	frags = append(frags, frags[1])
	wf, err := StitchTrace(trace, frags)
	if err != nil {
		t.Fatal(err)
	}
	if len(wf.Rows) != 4 {
		t.Fatalf("dedup failed: %d rows", len(wf.Rows))
	}
	if _, err := StitchTrace("ffffffffffffffffffffffffffffffff", frags); err == nil {
		t.Fatal("unknown trace id should error")
	}
}

// Parent links that form a cycle must not hide spans: the cycle is cut
// at its largest span id, which becomes a root, and its partner and a
// span hanging off the cycle render beneath it.
func TestStitchBreaksParentCycles(t *testing.T) {
	const trace = "4bf92f3577b34da6a3ce929d0e0e4736"
	t0 := time.Unix(1700000000, 0).UTC()
	span := func(name, id, parent string, ms int) SpanJSON {
		return SpanJSON{Name: name, TraceID: trace, SpanID: id, ParentSpanID: parent,
			Start: t0.Add(time.Duration(ms) * time.Millisecond)}
	}
	a := span("A", "000000000000000a", "000000000000000b", 0)
	b := span("B", "000000000000000b", "000000000000000a", 1)
	c := span("C", "000000000000000c", "", 2)
	d := span("D", "000000000000000d", "000000000000000b", 3)
	for _, tc := range []struct {
		spans []SpanJSON
		want  string
	}{
		{[]SpanJSON{a, b, c}, "B@0 A@1 C@0"},
		{[]SpanJSON{d, c, b, a}, "B@0 A@1 D@1 C@0"},
	} {
		wf, err := StitchTrace(trace, []TraceFragment{{Service: "svc", Spans: tc.spans}})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range wf.Rows {
			got = append(got, fmt.Sprintf("%s@%d", r.Span.Name, r.Depth))
		}
		if strings.Join(got, " ") != tc.want || wf.Roots != 2 {
			t.Fatalf("rows %v, roots %d; want %s with 2 roots", got, wf.Roots, tc.want)
		}
	}
}

func TestStitchRendersMarkdownAndHTML(t *testing.T) {
	const trace = "4bf92f3577b34da6a3ce929d0e0e4736"
	wf, err := StitchTrace(trace, fleetFragments(trace))
	if err != nil {
		t.Fatal(err)
	}
	md := wf.Markdown()
	for _, want := range []string{trace, "gateway_request", "gateway_relay", "backend_predict", "monitor_observe", "| service |"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
	html := string(wf.HTML())
	for _, want := range []string{trace, "backend_predict", "monitor_observe", "<style>"} {
		if !strings.Contains(html, want) {
			t.Fatalf("html missing %q", want)
		}
	}
	if strings.Contains(html, "<script") {
		t.Fatal("waterfall HTML must stay script-free")
	}
}
