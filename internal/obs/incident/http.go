package incident

// The incident HTTP surface, mounted at /debug/incidents on the
// gateway's and monitor's muxes:
//
//	GET  /debug/incidents              -> JSON list of retained bundles
//	GET  /debug/incidents/latest       -> newest bundle JSON (404 if none)
//	GET  /debug/incidents/view         -> HTML incident browser
//	GET  /debug/incidents/{id}         -> one bundle as JSON
//	GET  /debug/incidents/{id}/report  -> one bundle rendered to markdown
//	POST /debug/incidents/trigger      -> capture a bundle now
//
// Every response sets an explicit Content-Type and Cache-Control:
// no-store — incident state must never be served stale.

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"strings"

	"blackboxval/internal/monitor"
)

// ListEntry is one row of the GET /debug/incidents index.
type ListEntry struct {
	ID         string `json:"id"`
	CapturedAt string `json:"captured_at"`
	Reason     string `json:"reason"`
	// TopColumn is the highest-ranked attributed column ("" when the
	// bundle has no attribution).
	TopColumn string `json:"top_column,omitempty"`
	Alarming  bool   `json:"alarming"`
}

// MountPath is where binaries mount Handler.
const MountPath = "/debug/incidents"

// Handler serves the incident surface. Mount at MountPath (both with
// and without a trailing slash when using http.ServeMux):
//
//	mux.Handle(incident.MountPath, rec.Handler())
//	mux.Handle(incident.MountPath+"/", rec.Handler())
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rest := strings.TrimPrefix(strings.TrimPrefix(req.URL.Path, MountPath), "/")
		switch {
		case rest == "":
			r.handleList(w, req)
		case rest == "trigger":
			r.handleTrigger(w, req)
		case rest == "view":
			r.handleView(w, req)
		case rest == "latest":
			r.handleBundle(w, req, "", false)
		case strings.HasSuffix(rest, "/report"):
			r.handleBundle(w, req, strings.TrimSuffix(rest, "/report"), true)
		default:
			r.handleBundle(w, req, rest, false)
		}
	})
}

func (r *Recorder) handleList(w http.ResponseWriter, req *http.Request) {
	if !monitor.GuardGet(w, req) {
		return
	}
	bundles := r.Bundles()
	entries := make([]ListEntry, 0, len(bundles))
	for _, b := range bundles {
		entries = append(entries, ListEntry{
			ID:         b.ID,
			CapturedAt: b.CapturedAt.Format("2006-01-02T15:04:05Z07:00"),
			Reason:     b.Reason,
			TopColumn:  b.TopColumn(),
			Alarming:   b.Alarming,
		})
	}
	monitor.WriteJSON(w, map[string]any{"incidents": entries})
}

func (r *Recorder) handleTrigger(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	b, err := r.Capture("manual")
	if err != nil {
		// The bundle exists even when persistence failed; report both.
		monitor.SetHeaders(w, "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(map[string]any{"id": b.ID, "error": err.Error()})
		return
	}
	monitor.WriteJSON(w, b)
}

// handleBundle serves one bundle by id ("" = newest), as JSON or as a
// rendered markdown report.
func (r *Recorder) handleBundle(w http.ResponseWriter, req *http.Request, id string, report bool) {
	if !monitor.GuardGet(w, req) {
		return
	}
	var b *Bundle
	if id == "" {
		if bundles := r.Bundles(); len(bundles) > 0 {
			b = bundles[len(bundles)-1]
		}
	} else if found, ok := r.Bundle(id); ok {
		b = found
	}
	if b == nil {
		http.Error(w, "no such incident", http.StatusNotFound)
		return
	}
	if report {
		monitor.SetHeaders(w, "text/markdown; charset=utf-8")
		fmt.Fprint(w, b.Markdown())
		return
	}
	monitor.WriteJSON(w, b)
}

// handleView renders a dependency-free HTML incident browser: the list
// of retained bundles and the newest bundle's report inline.
func (r *Recorder) handleView(w http.ResponseWriter, req *http.Request) {
	if !monitor.GuardGet(w, req) {
		return
	}
	bundles := r.Bundles()
	monitor.SetHeaders(w, "text/html; charset=utf-8")
	var sb strings.Builder
	sb.WriteString(`<!doctype html><html lang="en"><head><meta charset="utf-8">
<title>ppm incidents</title>
<style>
  body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem; color: #222; }
  h1 { font-size: 1.2rem; }
  table { border-collapse: collapse; }
  th, td { border: 1px solid #ccc; padding: .25rem .6rem; }
  th { background: #f0f0f0; }
  pre { background: #fafafa; border: 1px solid #ddd; padding: 1rem; overflow-x: auto; }
  .meta { color: #666; font-size: .85rem; }
</style></head><body>
<h1>Incident bundles</h1>
`)
	if len(bundles) == 0 {
		sb.WriteString(`<p class="meta">No incidents captured yet. POST `)
		sb.WriteString(MountPath)
		sb.WriteString(`/trigger to capture one now.</p>`)
	} else {
		sb.WriteString("<table><thead><tr><th>id</th><th>captured</th><th>reason</th><th>top column</th><th>alarming</th></tr></thead><tbody>")
		for i := len(bundles) - 1; i >= 0; i-- {
			b := bundles[i]
			fmt.Fprintf(&sb, `<tr><td><a href="%s/%s">%s</a></td><td>%s</td><td>%s</td><td>%s</td><td>%v</td></tr>`,
				MountPath, html.EscapeString(b.ID), html.EscapeString(b.ID),
				b.CapturedAt.Format("2006-01-02 15:04:05"),
				html.EscapeString(b.Reason), html.EscapeString(b.TopColumn()), b.Alarming)
		}
		sb.WriteString("</tbody></table>")
		latest := bundles[len(bundles)-1]
		fmt.Fprintf(&sb, "<h1>Latest report (%s)</h1><pre>%s</pre>",
			html.EscapeString(latest.ID), html.EscapeString(latest.Markdown()))
	}
	sb.WriteString("</body></html>\n")
	fmt.Fprint(w, sb.String())
}
