package gateway

// The gateway's observability surface, built on the shared telemetry
// registry (internal/obs). The nine metric families and their
// exposition output predate the shared registry and are preserved
// bit-for-bit: same names, HELP text, label names and value
// formatting, so existing scrape configs and the integration tests
// keep working unchanged. Each Gateway owns a private Registry so two
// gateways in one process (tests, multi-backend deployments) never
// share series.

import (
	"net/http"

	"blackboxval/internal/obs"
)

// latencyBuckets are the request-duration histogram bounds in seconds.
var latencyBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Metrics is the gateway's observability surface, rendered at /metrics.
type Metrics struct {
	reg *obs.Registry

	requests           *obs.CounterVec   // gateway_requests_total{outcome=...}
	latency            *obs.HistogramVec // gateway_request_duration_seconds{outcome=...}
	retries            *obs.CounterVec   // gateway_backend_retries_total{reason=...}
	breakerState       *obs.Gauge        // gateway_breaker_state
	breakerTransitions *obs.CounterVec   // gateway_breaker_transitions_total{to=...}
	shadowDepth        *obs.Gauge        // gateway_shadow_queue_depth
	shadowDropped      *obs.CounterVec   // gateway_shadow_batches_total{fate=...}
	estimate           *obs.Gauge        // gateway_estimated_score
	alarm              *obs.Gauge        // gateway_alarm
}

func newMetrics() *Metrics {
	reg := obs.NewRegistry()
	return &Metrics{
		reg: reg,
		requests: reg.CounterVec("gateway_requests_total",
			"Proxied /predict_proba requests by outcome.", "outcome"),
		latency: reg.HistogramVec("gateway_request_duration_seconds",
			"Gateway-side request latency by outcome.", latencyBuckets, "outcome"),
		retries: reg.CounterVec("gateway_backend_retries_total",
			"Backend retry attempts by trigger.", "reason"),
		breakerState: reg.Gauge("gateway_breaker_state",
			"Circuit breaker position (0=closed, 1=half_open, 2=open)."),
		breakerTransitions: reg.CounterVec("gateway_breaker_transitions_total",
			"Circuit breaker state transitions by destination.", "to"),
		shadowDepth: reg.Gauge("gateway_shadow_queue_depth",
			"Batches waiting in the shadow-validation queue."),
		shadowDropped: reg.CounterVec("gateway_shadow_batches_total",
			"Shadow-validation batches by fate (observed, dropped, undecodable, raw_undecodable, class_mismatch).", "fate"),
		estimate: reg.Gauge("gateway_estimated_score",
			"Latest shadow-validation score estimate for the backend model."),
		alarm: reg.Gauge("gateway_alarm",
			"1 while the performance monitor is alarming, else 0."),
	}
}

// Registry exposes the gateway's metric registry, e.g. for binaries
// that register additional families next to the gateway's own.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// Handler serves the Prometheus text exposition with the canonical
// content type (shared with every other /metrics in the repository)
// and the monitor endpoints' cache hygiene: a scrape must always see
// live counters, never an intermediary's cached copy.
func (m *Metrics) Handler() http.Handler {
	inner := m.reg.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Cache-Control", "no-store")
		inner.ServeHTTP(w, r)
	})
}
