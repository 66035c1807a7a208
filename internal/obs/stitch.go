package obs

// Trace stitching: assembling one causal waterfall out of the span
// fragments that N processes journaled independently. Each process
// only ever sees its own spans; the parent-span ids carried by the
// traceparent headers are the seams. StitchTrace flattens every
// fragment, links children to parents across process boundaries, and
// emits a depth-first waterfall ordered by start time — rendered as
// markdown (ppm-diagnose -trace) or as a dependency-free HTML page in
// the drift-dashboard style (inline CSS, no scripts, no CDNs).

import (
	"fmt"
	"html"
	"sort"
	"strings"
	"time"
)

// TraceFragment is one process's contribution to a trace: the root
// span trees it recorded, labeled with the service (journal) name.
type TraceFragment struct {
	Service string
	Spans   []SpanJSON
}

// WaterfallRow is one span placed on the stitched timeline.
type WaterfallRow struct {
	Service string   `json:"service"`
	Depth   int      `json:"depth"`
	Span    SpanJSON `json:"span"`
	// OffsetSeconds is the span's start relative to the trace start.
	OffsetSeconds float64 `json:"offset_seconds"`
	// Root marks spans whose parent is outside every fragment (the
	// synthetic client span of a load generator, or a lost journal).
	Root bool `json:"root,omitempty"`
}

// Waterfall is a fully stitched trace.
type Waterfall struct {
	TraceID string         `json:"trace_id"`
	Start   time.Time      `json:"start"`
	Seconds float64        `json:"seconds"` // end of last span minus trace start
	Rows    []WaterfallRow `json:"rows"`
	// Roots counts rows promoted to the top level because their parent
	// span is not present in any fragment, plus one per cycle of parent
	// links (see StitchTrace). A fully connected trace from a traced
	// client has exactly one.
	Roots int `json:"roots"`
}

// stitchNode is the working form of one span during assembly.
type stitchNode struct {
	service  string
	span     SpanJSON
	children []*stitchNode
}

// StitchTrace merges the fragments' spans belonging to traceID into
// one waterfall. Spans are linked by span id across fragments;
// duplicates (the same span present in both a ring dump and a journal)
// are dropped. Parent links that form a cycle, which only corrupt or
// hostile journals produce, are cut at the cycle's largest span id,
// and that span is rendered as a root. An empty waterfall (no matching
// span anywhere) returns an error.
func StitchTrace(traceID string, frags []TraceFragment) (*Waterfall, error) {
	byID := map[string]*stitchNode{}
	var anon []*stitchNode // spans without ids can still render flat
	var flatten func(service string, s SpanJSON, parent string)
	flatten = func(service string, s SpanJSON, parent string) {
		if s.TraceID != traceID {
			return
		}
		children := s.Children
		s.Children = nil
		if s.ParentSpanID == "" {
			s.ParentSpanID = parent
		}
		n := &stitchNode{service: service, span: s}
		if s.SpanID != "" {
			if _, dup := byID[s.SpanID]; !dup {
				byID[s.SpanID] = n
			}
		} else {
			anon = append(anon, n)
		}
		for _, c := range children {
			if c.TraceID == "" {
				c.TraceID = s.TraceID
			}
			flatten(service, c, s.SpanID)
		}
	}
	for _, f := range frags {
		for _, s := range f.Spans {
			flatten(f.Service, s, "")
		}
	}
	if len(byID) == 0 && len(anon) == 0 {
		return nil, fmt.Errorf("trace %s: no spans in any fragment", traceID)
	}

	// Link children to parents; spans whose parent is unknown are roots.
	// So is a span whose link would close a cycle of parent links (A's
	// parent B, B's parent A): ids link in sorted order, so a cycle is
	// cut at its largest span id.
	var roots []*stitchNode
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids) // deterministic iteration before the time sort
	linked := map[*stitchNode]*stitchNode{}
	for _, id := range ids {
		n := byID[id]
		p, ok := byID[n.span.ParentSpanID]
		for q := p; ok && q != nil; q = linked[q] {
			ok = q != n
		}
		if ok {
			p.children = append(p.children, n)
			linked[n] = p
		} else {
			roots = append(roots, n)
		}
	}
	roots = append(roots, anon...)

	byStart := func(ns []*stitchNode) {
		sort.SliceStable(ns, func(i, k int) bool { return ns[i].span.Start.Before(ns[k].span.Start) })
	}
	byStart(roots)

	w := &Waterfall{TraceID: traceID, Roots: len(roots)}
	if len(roots) > 0 {
		w.Start = roots[0].span.Start
		for _, r := range roots {
			if r.span.Start.Before(w.Start) {
				w.Start = r.span.Start
			}
		}
	}
	var emit func(n *stitchNode, depth int, root bool)
	emit = func(n *stitchNode, depth int, root bool) {
		off := n.span.Start.Sub(w.Start).Seconds()
		if end := off + n.span.Seconds; end > w.Seconds {
			w.Seconds = end
		}
		w.Rows = append(w.Rows, WaterfallRow{
			Service: n.service, Depth: depth, Span: n.span,
			OffsetSeconds: off, Root: root,
		})
		byStart(n.children)
		for _, c := range n.children {
			emit(c, depth+1, false)
		}
	}
	for _, r := range roots {
		emit(r, 0, true)
	}
	return w, nil
}

// Markdown renders the waterfall as the ppm-diagnose trace report: a
// header with the trace coordinates followed by one table row per
// span, indented by depth, with offset/duration in milliseconds and
// the span's attributes inline.
func (w *Waterfall) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Trace %s\n\n", w.TraceID)
	fmt.Fprintf(&b, "- start: %s\n", w.Start.Format(time.RFC3339Nano))
	fmt.Fprintf(&b, "- duration: %.3f ms\n", w.Seconds*1e3)
	fmt.Fprintf(&b, "- spans: %d across %d root(s)\n\n", len(w.Rows), w.Roots)
	b.WriteString("| service | span | offset (ms) | duration (ms) | detail |\n")
	b.WriteString("|---|---|---:|---:|---|\n")
	for _, r := range w.Rows {
		indent := strings.Repeat("· ", r.Depth)
		fmt.Fprintf(&b, "| %s | %s%s | %.3f | %.3f | %s |\n",
			r.Service, indent, r.Span.Name, r.OffsetSeconds*1e3, r.Span.Seconds*1e3, rowDetail(r.Span))
	}
	return b.String()
}

func rowDetail(s SpanJSON) string {
	parts := make([]string, 0, len(s.Attrs)+len(s.Metrics))
	keys := make([]string, 0, len(s.Attrs))
	for k := range s.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		parts = append(parts, k+"="+s.Attrs[k])
	}
	mkeys := make([]string, 0, len(s.Metrics))
	for k := range s.Metrics {
		mkeys = append(mkeys, k)
	}
	sort.Strings(mkeys)
	for _, k := range mkeys {
		parts = append(parts, fmt.Sprintf("%s=%g", k, s.Metrics[k]))
	}
	return strings.Join(parts, " ")
}

// HTML renders the waterfall as a self-contained page: no scripts, no
// external assets, bars positioned by percentage of the trace window —
// the same dependency-free style as the drift dashboard, so it opens
// from a file:// URL on an air-gapped incident laptop.
func (w *Waterfall) HTML() []byte {
	total := w.Seconds
	if total <= 0 {
		total = 1e-9
	}
	var b strings.Builder
	b.WriteString("<!doctype html>\n<html><head><meta charset=\"utf-8\">\n")
	fmt.Fprintf(&b, "<title>trace %s</title>\n", html.EscapeString(w.TraceID))
	b.WriteString(`<style>
body{font-family:ui-monospace,Menlo,monospace;margin:2em;background:#fafafa;color:#222}
h1{font-size:1.1em}
table{border-collapse:collapse;width:100%}
td,th{padding:2px 8px;font-size:12px;text-align:left;border-bottom:1px solid #eee;white-space:nowrap}
td.bar{width:45%}
.lane{position:relative;height:14px;background:#f0f0f0}
.lane span{position:absolute;top:2px;height:10px;border-radius:2px;min-width:2px}
.svc-0 span{background:#4878cf}.svc-1 span{background:#6acc65}.svc-2 span{background:#d65f5f}
.svc-3 span{background:#b47cc7}.svc-4 span{background:#c4ad66}.svc-5 span{background:#77bedb}
.muted{color:#888}
</style></head><body>
`)
	fmt.Fprintf(&b, "<h1>Trace %s</h1>\n", html.EscapeString(w.TraceID))
	fmt.Fprintf(&b, "<p class=\"muted\">start %s · %.3f ms · %d spans · %d root(s)</p>\n",
		html.EscapeString(w.Start.Format(time.RFC3339Nano)), w.Seconds*1e3, len(w.Rows), w.Roots)
	b.WriteString("<table>\n<tr><th>service</th><th>span</th><th>offset</th><th>dur</th><th>timeline</th><th>detail</th></tr>\n")
	laneClass := map[string]int{}
	for _, r := range w.Rows {
		if _, ok := laneClass[r.Service]; !ok {
			laneClass[r.Service] = len(laneClass) % 6
		}
		left := 100 * r.OffsetSeconds / total
		width := 100 * r.Span.Seconds / total
		if width < 0.2 {
			width = 0.2
		}
		if left > 99.8 {
			left = 99.8
		}
		indent := strings.Repeat("&nbsp;&nbsp;", r.Depth)
		fmt.Fprintf(&b,
			"<tr><td>%s</td><td>%s%s</td><td>%.3fms</td><td>%.3fms</td>"+
				"<td class=\"bar\"><div class=\"lane svc-%d\"><span style=\"left:%.2f%%;width:%.2f%%\"></span></div></td><td class=\"muted\">%s</td></tr>\n",
			html.EscapeString(r.Service), indent, html.EscapeString(r.Span.Name),
			r.OffsetSeconds*1e3, r.Span.Seconds*1e3,
			laneClass[r.Service], left, width, html.EscapeString(rowDetail(r.Span)))
	}
	b.WriteString("</table>\n</body></html>\n")
	return []byte(b.String())
}
