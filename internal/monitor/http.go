package monitor

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// Handler exposes the monitor's state over HTTP for dashboards and
// scrapers:
//
//	GET /                  -> HTML drift dashboard (auto-refreshing)
//	GET /summary           -> Summary as JSON
//	GET /history?limit=N   -> the most recent N records (default all retained)
//	GET /alarming          -> {"alarming": bool, "alarm_line": x}
//	GET /timeline?limit=N  -> TimelineDoc clipped to the most recent N windows
//	GET /healthz           -> 200 ok
//
// Every ?limit= shares one validation contract with /debug/spans:
// non-numeric or negative input is a 400, never a silent default.
//
// Mount it next to the prediction service so the validation state ships
// with the model.
func (m *Monitor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", DashboardHandler("Performance-predictor drift timeline"))
	mux.HandleFunc("/timeline", func(w http.ResponseWriter, r *http.Request) {
		ServeTimeline(w, r, m.TimelineDoc())
	})
	mux.HandleFunc("/summary", func(w http.ResponseWriter, r *http.Request) {
		if GuardGet(w, r) {
			WriteJSON(w, m.Summarize())
		}
	})
	mux.HandleFunc("/history", func(w http.ResponseWriter, r *http.Request) {
		if !GuardGet(w, r) {
			return
		}
		history := m.History()
		limit, ok := parseLimit(w, r, len(history))
		if !ok {
			return
		}
		if limit < len(history) {
			history = history[len(history)-limit:]
		}
		WriteJSON(w, history)
	})
	mux.HandleFunc("/alarming", func(w http.ResponseWriter, r *http.Request) {
		if GuardGet(w, r) {
			WriteJSON(w, map[string]any{
				"alarming":   m.Alarming(),
				"alarm_line": m.AlarmLine(),
			})
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		SetHeaders(w, "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// ServeTimeline writes doc as the /timeline response, clipped to the
// most recent ?limit= windows. A replica's monitor and the fleet
// aggregator both serve their timelines through it.
func ServeTimeline(w http.ResponseWriter, r *http.Request, doc TimelineDoc) {
	if !GuardGet(w, r) {
		return
	}
	limit, ok := parseLimit(w, r, len(doc.Windows))
	if !ok {
		return
	}
	if limit < len(doc.Windows) {
		doc.Windows = doc.Windows[len(doc.Windows)-limit:]
	}
	WriteJSON(w, doc)
}

// parseLimit reads ?limit= with the validation contract every limit
// parameter in this repository shares (/history, /timeline,
// /debug/spans): absent means def, non-numeric or negative writes a
// 400 and reports ok=false.
func parseLimit(w http.ResponseWriter, r *http.Request, def int) (int, bool) {
	raw := r.URL.Query().Get("limit")
	if raw == "" {
		return def, true
	}
	limit, err := strconv.Atoi(raw)
	if err != nil || limit < 0 {
		http.Error(w, "limit must be a non-negative integer", http.StatusBadRequest)
		return 0, false
	}
	return limit, true
}

// GuardGet answers anything but GET with a 405 and reports whether the
// handler should go on.
func GuardGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

// SetHeaders applies the shared response hygiene of every monitoring
// endpoint: an explicit Content-Type and Cache-Control: no-store,
// because all of them report live model state that a cache (or a
// browser's back button) must never serve stale.
func SetHeaders(w http.ResponseWriter, contentType string) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Cache-Control", "no-store")
}

// WriteJSON writes v as a no-store JSON response.
func WriteJSON(w http.ResponseWriter, v any) {
	SetHeaders(w, "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
