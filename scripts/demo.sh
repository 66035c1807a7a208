#!/usr/bin/env bash
# Smoke test for the serving stack, in nine acts:
#
#   ppm-serve (backend model server)  <-  ppm-gateway (shadow proxy)  <-  curl / ppm-traffic
#                                              |
#                                              +-> ppm-traffic sink (alert webhook)
#
# Act 1 boots the backend and a proxy-mode gateway, fires a smoke
# request and asserts the gateway's /metrics endpoint scrapes as
# Prometheus text with the traffic accounted for. Act 2 trains a small
# validation bundle, restarts the gateway with shadow validation and an
# alert rule wired to a webhook sink, drives a corruption ramp through
# it with ppm-traffic, and asserts the drift timeline filled, the alert
# reached the sink, and every response carried an X-Request-ID. Act 3
# restarts the gateway with the incident flight recorder, ramps a
# single-column corruption (-corrupt-column age) through it, and
# asserts the alert auto-captured an incident bundle whose per-column
# attribution ranks the corrupted column first, then renders it with
# ppm-diagnose. Act 4 boots a second gateway replica plus ppm-aggregate
# over both, round-robins a corruption ramp across the replicas with
# ppm-traffic -targets, and asserts the merged fleet timeline fills,
# the fleet alert reaches the sink (with /healthz flipping to 503),
# and that killing one replica degrades to the stale-shards gauge
# instead of a false alarm. Act 5 closes the label-feedback loop: the
# gateway restarts with an alert rule on |h - labeled accuracy|, a
# corruption ramp runs with ground truth replayed one batch behind
# (ppm-traffic -label-lag 1), and the act asserts the labels joined,
# the Bayesian credible interval narrowed, the labeled-accuracy series
# reached the drift timeline, and the gap rule fired on the corrupted
# tail. Act 6 exercises the serving SLO observatory: the gateway
# restarts with a 1ns latency budget (every request lands over budget),
# ppm-traffic drives an open-loop ramp (-rate, coordinated-omission-free
# arrival schedule) through it, and the act asserts the burn-rate rule
# fired, the firing edge auto-captured an incident bundle embedding
# CPU+heap pprof profiles plus the SLO snapshot with slow-request
# exemplars, /slo and the ppm_serving_* metric families report the
# over-budget state, and ppm-diagnose -extract-profiles writes a pprof
# pair that go tool pprof can open. Act 7 turns on distributed tracing:
# backend and gateway restart with span journals (-trace-dir),
# ppm-traffic drives a half-sampled ramp (-trace-sample 0.5, the
# deterministic head-sampling verdict is a pure function of the
# seed-derived trace id), and ppm-diagnose -trace stitches the two
# on-disk journals into one waterfall that must carry the gateway
# relay, backend predict and shadow monitor observe spans under a
# single shared trace id — while the unsampled trace ids left no spans
# anywhere. Act 8 turns on the durable timeline store: the gateway
# restarts with -tsdb-dir and the act-2 alert rule, a corruption ramp
# fires the alert live, and the act asserts /monitor/timeline/range
# serves the persisted windows, that the history survives a gateway
# restart onto the same directory, and that ppm-backtest replaying the
# on-disk windows reproduces the live webhook alert event byte for
# byte. Act 9 runs the batch-file monitor: ppm-monitor scores a spool
# of batch CSVs with the durable store and the act-2 alert rule on,
# then takes a SIGTERM mid-watch and must exit 0 after draining — the
# firing event reaches the webhook sink and ppm-backtest replays every
# scored window from the sealed store. All acts shut down gracefully
# (SIGTERM, exercising the shared drain path). Run via `make demo`.
set -euo pipefail

cd "$(dirname "$0")/.."

SERVE_ADDR=127.0.0.1:18080
GW_ADDR=127.0.0.1:18088
GW2_ADDR=127.0.0.1:18089
AGG_ADDR=127.0.0.1:18090
MON_ADDR=127.0.0.1:18091
SINK_ADDR=127.0.0.1:18099
WORKDIR="$(mktemp -d)"
SERVE_PID=""
GW_PID=""
GW2_PID=""
AGG_PID=""
MON_PID=""
SINK_PID=""

cleanup() {
  # SIGTERM first so the graceful drain path runs; escalate only if needed.
  for pid in "$MON_PID" "$AGG_PID" "$GW_PID" "$GW2_PID" "$SERVE_PID" "$SINK_PID"; do
    [ -n "$pid" ] && kill -TERM "$pid" 2>/dev/null || true
  done
  for pid in "$MON_PID" "$AGG_PID" "$GW_PID" "$GW2_PID" "$SERVE_PID" "$SINK_PID"; do
    [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
  done
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

wait_for() { # url [attempts]
  local url="$1" attempts="${2:-100}"
  for _ in $(seq "$attempts"); do
    if curl -fsS "$url" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "demo: $url never came up" >&2
  return 1
}

echo "demo: building binaries"
go build -o "$WORKDIR/ppm-serve" ./cmd/ppm-serve
go build -o "$WORKDIR/ppm-gateway" ./cmd/ppm-gateway
go build -o "$WORKDIR/ppm-validate" ./cmd/ppm-validate
go build -o "$WORKDIR/ppm-traffic" ./cmd/ppm-traffic
go build -o "$WORKDIR/ppm-diagnose" ./cmd/ppm-diagnose
go build -o "$WORKDIR/ppm-aggregate" ./cmd/ppm-aggregate
go build -o "$WORKDIR/ppm-backtest" ./cmd/ppm-backtest
go build -o "$WORKDIR/ppm-monitor" ./cmd/ppm-monitor

echo "demo: starting ppm-serve on $SERVE_ADDR (small lr model, quick to train)"
"$WORKDIR/ppm-serve" -dataset income -model lr -rows 1200 -addr "$SERVE_ADDR" \
  >"$WORKDIR/serve.log" 2>&1 &
SERVE_PID=$!
wait_for "http://$SERVE_ADDR/healthz" 300

echo "demo: starting ppm-gateway on $GW_ADDR (proxy mode)"
"$WORKDIR/ppm-gateway" -backend "http://$SERVE_ADDR" -addr "$GW_ADDR" \
  >"$WORKDIR/gateway.log" 2>&1 &
GW_PID=$!
wait_for "http://$GW_ADDR/healthz"

echo "demo: firing a smoke request through the proxy"
# An empty JSON object is a well-formed request the backend rejects with
# 400 — it still exercises the full proxy path (forward, relay, account).
code="$(curl -s -o /dev/null -w '%{http_code}' \
  -X POST -H 'Content-Type: application/json' -d '{}' \
  "http://$GW_ADDR/predict_proba")"
if [ "$code" != "400" ]; then
  echo "demo: expected the backend's 400 relayed through the gateway, got $code" >&2
  cat "$WORKDIR/gateway.log" >&2
  exit 1
fi

echo "demo: asserting /metrics scrapes"
metrics="$(curl -fsS "http://$GW_ADDR/metrics")"
echo "$metrics" | grep -q '^# TYPE gateway_requests_total counter$' || {
  echo "demo: /metrics is missing the requests counter TYPE line" >&2; exit 1; }
echo "$metrics" | grep -q '^gateway_requests_total{outcome="upstream_4xx"} 1$' || {
  echo "demo: proxied smoke request not accounted in /metrics:" >&2
  echo "$metrics" | grep gateway_requests_total >&2 || true
  exit 1
}
echo "$metrics" | grep -q '^gateway_breaker_state 0$' || {
  echo "demo: breaker should be closed" >&2; exit 1; }

echo "demo: checking /status"
# NB: assertions capture the body first — `curl | grep -q` under
# pipefail can fail spuriously when grep matches early and curl takes a
# write error on the closed pipe.
status_body="$(curl -fsS "http://$GW_ADDR/status")"
echo "$status_body" | grep -q '"breaker_state":"closed"' || {
  echo "demo: /status missing breaker state" >&2; exit 1; }

echo "demo: act 1 OK — gateway proxied traffic and /metrics scraped cleanly"

# ---- Act 2: shadow validation, drift timeline, alerting -------------

echo "demo: training a validation bundle (small lr model)"
"$WORKDIR/ppm-validate" train -dataset income -model lr -rows 1200 \
  -threshold 0.05 -out "$WORKDIR/bundle" >"$WORKDIR/train.log" 2>&1

cat >"$WORKDIR/rules.json" <<'EOF'
{"rules": [
  {"name": "accuracy_alarm", "series": "alarm", "op": ">=", "threshold": 1,
   "reduce": "max", "for_windows": 1, "clear_windows": 2, "severity": "critical"}
]}
EOF

echo "demo: starting the alert webhook sink on $SINK_ADDR"
"$WORKDIR/ppm-traffic" sink -addr "$SINK_ADDR" >"$WORKDIR/sink.log" 2>&1 &
SINK_PID=$!
wait_for "http://$SINK_ADDR/healthz"

echo "demo: restarting the gateway with shadow validation + alerting"
kill -TERM "$GW_PID" && wait "$GW_PID" 2>/dev/null || true
"$WORKDIR/ppm-gateway" -backend "http://$SERVE_ADDR" -addr "$GW_ADDR" \
  -bundle "$WORKDIR/bundle" \
  -alert-rules "$WORKDIR/rules.json" -alert-webhook "http://$SINK_ADDR/" \
  >"$WORKDIR/gateway2.log" 2>&1 &
GW_PID=$!
wait_for "http://$GW_ADDR/healthz"

echo "demo: driving a corruption ramp through the proxy"
"$WORKDIR/ppm-traffic" send -target "http://$GW_ADDR" -dataset income \
  -batches 6 -rows 300 -corrupt scaling -max-magnitude 0.95 -clean 2 \
  | tee "$WORKDIR/traffic.log"
grep -q 'request_id gw-' "$WORKDIR/traffic.log" || {
  echo "demo: ppm-traffic responses missing gateway-minted request ids" >&2; exit 1; }

echo "demo: asserting every response carries X-Request-ID (even errors)"
curl -s -o /dev/null -D "$WORKDIR/headers" \
  -X POST -H 'Content-Type: application/json' -d '{}' \
  "http://$GW_ADDR/predict_proba"
grep -qi '^x-request-id:' "$WORKDIR/headers" || {
  echo "demo: 4xx response lost the X-Request-ID header" >&2
  cat "$WORKDIR/headers" >&2; exit 1; }

echo "demo: asserting the drift timeline filled"
# The shadow tap observes batches asynchronously; poll until windows
# with series aggregates show up on /monitor/timeline.
timeline_ok=""
for _ in $(seq 50); do
  tl_body="$(curl -fsS "http://$GW_ADDR/monitor/timeline" 2>/dev/null || true)"
  if echo "$tl_body" | grep -q '"estimate"'; then
    timeline_ok=1; break
  fi
  sleep 0.2
done
[ -n "$timeline_ok" ] || {
  echo "demo: /monitor/timeline never produced a window with series data:" >&2
  curl -fsS "http://$GW_ADDR/monitor/timeline" >&2 || true
  cat "$WORKDIR/gateway2.log" >&2; exit 1; }

echo "demo: waiting for the alert to reach the webhook sink"
alert_ok=""
for _ in $(seq 50); do
  count="$(curl -fsS "http://$SINK_ADDR/count" | sed 's/[^0-9]//g')"
  if [ -n "$count" ] && [ "$count" -ge 1 ]; then alert_ok=1; break; fi
  sleep 0.2
done
[ -n "$alert_ok" ] || {
  echo "demo: the corruption ramp never produced a webhook alert:" >&2
  curl -fsS "http://$SINK_ADDR/events" >&2 || true
  cat "$WORKDIR/gateway2.log" >&2; exit 1; }
sink_events="$(curl -fsS "http://$SINK_ADDR/events")"
echo "$sink_events" | grep -q '"state":"firing"' || {
  echo "demo: sink events missing a firing alert" >&2; exit 1; }

echo "demo: asserting alert metrics on /metrics"
gw2_metrics="$(curl -fsS "http://$GW_ADDR/metrics")"
echo "$gw2_metrics" | grep -q '^ppm_alerts_total{rule="accuracy_alarm"} ' || {
  echo "demo: ppm_alerts_total missing from the gateway registry" >&2; exit 1; }

# ---- Act 3: incident flight recorder with drift attribution ---------

# The act-2 rule fires on the very first alarming window, when the
# reservoir has barely seen corrupted rows; holding the alarm for two
# windows lets the capture accumulate enough drifted mass for a
# decisive attribution.
cat >"$WORKDIR/rules3.json" <<'EOF'
{"rules": [
  {"name": "accuracy_alarm", "series": "alarm", "op": ">=", "threshold": 1,
   "reduce": "max", "for_windows": 2, "clear_windows": 2, "severity": "critical"}
]}
EOF

echo "demo: restarting the gateway with the incident flight recorder"
kill -TERM "$GW_PID" && wait "$GW_PID" 2>/dev/null || true
"$WORKDIR/ppm-gateway" -backend "http://$SERVE_ADDR" -addr "$GW_ADDR" \
  -bundle "$WORKDIR/bundle" \
  -alert-rules "$WORKDIR/rules3.json" -alert-webhook "http://$SINK_ADDR/" \
  -incident-dir "$WORKDIR/incidents" \
  >"$WORKDIR/gateway3.log" 2>&1 &
GW_PID=$!
wait_for "http://$GW_ADDR/healthz"

echo "demo: asserting runtime self-telemetry on /metrics"
gw3_metrics="$(curl -fsS "http://$GW_ADDR/metrics")"
echo "$gw3_metrics" | grep -q '^ppm_go_goroutines ' || {
  echo "demo: ppm_go_goroutines missing from the gateway registry" >&2; exit 1; }

echo "demo: ramping a single-column corruption (age x1000) through the proxy"
"$WORKDIR/ppm-traffic" send -target "http://$GW_ADDR" -dataset income \
  -batches 7 -rows 300 -corrupt-column age -max-magnitude 0.95 -clean 2 \
  >"$WORKDIR/traffic3.log" 2>&1

echo "demo: waiting for the alert to auto-capture an incident bundle"
incident_ok=""
for _ in $(seq 50); do
  inc_body="$(curl -fsS "http://$GW_ADDR/debug/incidents" 2>/dev/null || true)"
  if echo "$inc_body" | grep -q '"inc-'; then
    incident_ok=1; break
  fi
  sleep 0.2
done
[ -n "$incident_ok" ] || {
  echo "demo: the corruption ramp never auto-captured an incident:" >&2
  curl -fsS "http://$GW_ADDR/debug/incidents" >&2 || true
  cat "$WORKDIR/gateway3.log" >&2; exit 1; }

echo "demo: asserting the bundle attributes the drift to the corrupted column"
incidents_body="$(curl -fsS "http://$GW_ADDR/debug/incidents")"
echo "$incidents_body" | grep -q '"top_column":"age"' || {
  echo "demo: incident attribution did not rank the corrupted column first:" >&2
  echo "$incidents_body" >&2
  exit 1; }
latest_body="$(curl -fsS "http://$GW_ADDR/debug/incidents/latest")"
echo "$latest_body" | grep -q '"reason":"alert:' || {
  echo "demo: latest bundle was not captured by the alert hook" >&2; exit 1; }

echo "demo: rendering the bundle with ppm-diagnose"
"$WORKDIR/ppm-diagnose" -dir "$WORKDIR/incidents" >"$WORKDIR/incident.md"
grep -q '| 1 | age |' "$WORKDIR/incident.md" || {
  echo "demo: ppm-diagnose report does not rank age first:" >&2
  cat "$WORKDIR/incident.md" >&2; exit 1; }

# ---- Act 4: two replicas, fleet aggregation, stale-shard degradation

echo "demo: restarting gateway replica gw-a (shadow validation, no local alerting)"
kill -TERM "$GW_PID" && wait "$GW_PID" 2>/dev/null || true
"$WORKDIR/ppm-gateway" -backend "http://$SERVE_ADDR" -addr "$GW_ADDR" \
  -bundle "$WORKDIR/bundle" -replica gw-a \
  >"$WORKDIR/gateway4a.log" 2>&1 &
GW_PID=$!
echo "demo: starting gateway replica gw-b on $GW2_ADDR"
"$WORKDIR/ppm-gateway" -backend "http://$SERVE_ADDR" -addr "$GW2_ADDR" \
  -bundle "$WORKDIR/bundle" -replica gw-b \
  >"$WORKDIR/gateway4b.log" 2>&1 &
GW2_PID=$!
wait_for "http://$GW_ADDR/healthz"
wait_for "http://$GW2_ADDR/healthz"

echo "demo: starting ppm-aggregate over both replicas on $AGG_ADDR"
# Alerting moves to the fleet level: the same rule file as act 2, now
# evaluated on the merged timeline and webhooked to the same sink.
"$WORKDIR/ppm-aggregate" \
  -replicas "gw-a=http://$GW_ADDR,gw-b=http://$GW2_ADDR" \
  -addr "$AGG_ADDR" -interval 500ms -stale-after 2s \
  -alert-rules "$WORKDIR/rules.json" -alert-webhook "http://$SINK_ADDR/" \
  >"$WORKDIR/aggregate.log" 2>&1 &
AGG_PID=$!
wait_for "http://$AGG_ADDR/healthz"
fleet_dash="$(curl -fsS "http://$AGG_ADDR/")"
echo "$fleet_dash" | grep -q 'Fleet drift timeline' || {
  echo "demo: fleet dashboard did not render" >&2; exit 1; }

sink_before="$(curl -fsS "http://$SINK_ADDR/count" | sed 's/[^0-9]//g')"

echo "demo: round-robining a corruption ramp across both replicas"
"$WORKDIR/ppm-traffic" send -targets "http://$GW_ADDR,http://$GW2_ADDR" \
  -dataset income -batches 8 -rows 300 -corrupt scaling -max-magnitude 0.95 \
  -clean 2 >"$WORKDIR/traffic4.log" 2>&1

echo "demo: waiting for the merged fleet timeline to fill"
fleet_ok=""
for _ in $(seq 50); do
  fleet_tl="$(curl -fsS "http://$AGG_ADDR/timeline" 2>/dev/null || true)"
  if echo "$fleet_tl" | grep -q '"estimate"'; then
    fleet_ok=1; break
  fi
  sleep 0.2
done
[ -n "$fleet_ok" ] || {
  echo "demo: aggregator /timeline never produced a merged window:" >&2
  curl -fsS "http://$AGG_ADDR/timeline" >&2 || true
  cat "$WORKDIR/aggregate.log" >&2; exit 1; }

echo "demo: waiting for the fleet alert to reach the webhook sink"
fleet_alert=""
for _ in $(seq 50); do
  count="$(curl -fsS "http://$SINK_ADDR/count" | sed 's/[^0-9]//g')"
  if [ -n "$count" ] && [ "$count" -gt "${sink_before:-0}" ]; then fleet_alert=1; break; fi
  sleep 0.2
done
[ -n "$fleet_alert" ] || {
  echo "demo: the fleet-level alert never reached the sink:" >&2
  cat "$WORKDIR/aggregate.log" >&2; exit 1; }

echo "demo: asserting the aggregator /healthz reports 503 while the fleet alarm is active"
agg_code="$(curl -s -o /dev/null -w '%{http_code}' "http://$AGG_ADDR/healthz")"
if [ "$agg_code" != "503" ]; then
  echo "demo: aggregator /healthz returned $agg_code during an active fleet alert" >&2
  exit 1
fi

echo "demo: asserting federation metrics on the aggregator /metrics"
agg_metrics="$(curl -fsS "http://$AGG_ADDR/metrics")"
echo "$agg_metrics" | grep -q '^ppm_federate_replicas 2$' || {
  echo "demo: ppm_federate_replicas gauge wrong:" >&2
  echo "$agg_metrics" | grep ppm_federate >&2 || true; exit 1; }
echo "$agg_metrics" | grep -q '^ppm_federate_windows_merged_total [1-9]' || {
  echo "demo: no fleet windows merged" >&2; exit 1; }

echo "demo: killing replica gw-b and waiting for stale-shard degradation"
kill -TERM "$GW2_PID" && wait "$GW2_PID" 2>/dev/null || true
GW2_PID=""
stale_ok=""
for _ in $(seq 50); do
  stale_metrics="$(curl -fsS "http://$AGG_ADDR/metrics" 2>/dev/null || true)"
  if echo "$stale_metrics" | grep -q '^ppm_federate_stale_shards 1$'; then
    stale_ok=1; break
  fi
  sleep 0.2
done
[ -n "$stale_ok" ] || {
  echo "demo: dead replica never surfaced as a stale shard:" >&2
  curl -fsS "http://$AGG_ADDR/metrics" | grep ppm_federate >&2 || true
  cat "$WORKDIR/aggregate.log" >&2; exit 1; }
agg_status="$(curl -fsS "http://$AGG_ADDR/status")"
echo "$agg_status" | grep -q '"stale":true' || {
  echo "demo: /status does not flag the dead replica as stale" >&2; exit 1; }

# ---- Act 5: label feedback — lagged ground truth closes the loop ----

echo "demo: stopping the aggregator (act 5 is single-replica)"
kill -TERM "$AGG_PID" && wait "$AGG_PID" 2>/dev/null || true
AGG_PID=""

# The gap rule watches |h - labeled accuracy|: h keeps estimating from
# unlabeled batch statistics while the replayed ground truth says what
# the model actually scored. The ramp uses flipped_sign — one of the
# paper's held-out *unknown* error types h was never trained on (the
# bundle trains on the four known tabular types) — so h stays confident
# while the labels disagree; only the delayed ground truth exposes the
# gap. (A known type like scaling would NOT fire this rule: act-2's h
# tracks it to within ~0.03.)
cat >"$WORKDIR/rules5.json" <<'EOF'
{"rules": [
  {"name": "h_acc_gap", "series": "h_abs_gap", "op": ">=", "threshold": 0.15,
   "reduce": "max", "for_windows": 1, "clear_windows": 2, "severity": "critical"}
]}
EOF

echo "demo: restarting the gateway with label feedback + the |h - acc| gap rule"
kill -TERM "$GW_PID" && wait "$GW_PID" 2>/dev/null || true
"$WORKDIR/ppm-gateway" -backend "http://$SERVE_ADDR" -addr "$GW_ADDR" \
  -bundle "$WORKDIR/bundle" \
  -alert-rules "$WORKDIR/rules5.json" -alert-webhook "http://$SINK_ADDR/" \
  >"$WORKDIR/gateway5.log" 2>&1 &
GW_PID=$!
wait_for "http://$GW_ADDR/healthz"

sink_before5="$(curl -fsS "http://$SINK_ADDR/count" | sed 's/[^0-9]//g')"

echo "demo: driving an unknown-error ramp with ground truth replayed one batch behind"
"$WORKDIR/ppm-traffic" send -target "http://$GW_ADDR" -dataset income \
  -batches 8 -rows 300 -corrupt flipped_sign -max-magnitude 0.95 -clean 3 \
  -label-lag 1 >"$WORKDIR/traffic5.log" 2>&1
grep -q 'labels: replayed' "$WORKDIR/traffic5.log" || {
  echo "demo: ppm-traffic never replayed labels:" >&2
  cat "$WORKDIR/traffic5.log" >&2; exit 1; }

echo "demo: waiting for the labels to join and the credible interval to narrow"
labels_ok=""
for _ in $(seq 50); do
  labels_status="$(curl -fsS "http://$GW_ADDR/labels/status" 2>/dev/null || true)"
  joined="$(echo "$labels_status" | sed -n 's/.*"rows_labeled":\([0-9]*\).*/\1/p')"
  if [ -n "$joined" ] && [ "$joined" -ge 2400 ]; then labels_ok=1; break; fi
  sleep 0.2
done
[ -n "$labels_ok" ] || {
  echo "demo: /labels/status never accounted the replayed ground truth:" >&2
  echo "$labels_status" >&2
  cat "$WORKDIR/gateway5.log" >&2; exit 1; }
# With ~2400 labeled rows the Beta(1,1) prior's 0.95-wide interval must
# have collapsed; 0.1 is loose for the demo's clean/corrupt mix.
overall="$(echo "$labels_status" | grep -o '"overall":{[^}]*}')"
acc_lo="$(echo "$overall" | sed -n 's/.*"lo":\([0-9.e-]*\).*/\1/p')"
acc_hi="$(echo "$overall" | sed -n 's/.*"hi":\([0-9.e-]*\).*/\1/p')"
awk -v lo="$acc_lo" -v hi="$acc_hi" 'BEGIN { exit !(hi > lo && hi - lo < 0.1) }' || {
  echo "demo: labeled-accuracy interval [$acc_lo, $acc_hi] did not narrow" >&2
  echo "$labels_status" >&2; exit 1; }

echo "demo: asserting the labeled-accuracy series reached the drift timeline"
tl5_body="$(curl -fsS "http://$GW_ADDR/monitor/timeline")"
echo "$tl5_body" | grep -q '"labeled_acc_mean"' || {
  echo "demo: /monitor/timeline is missing the labeled_acc_mean series" >&2; exit 1; }

echo "demo: waiting for the |h - acc| gap alert to reach the sink"
gap_alert=""
for _ in $(seq 50); do
  count="$(curl -fsS "http://$SINK_ADDR/count" | sed 's/[^0-9]//g')"
  if [ -n "$count" ] && [ "$count" -gt "${sink_before5:-0}" ]; then gap_alert=1; break; fi
  sleep 0.2
done
[ -n "$gap_alert" ] || {
  echo "demo: the corrupted tail never fired the h_acc_gap rule:" >&2
  curl -fsS "http://$GW_ADDR/monitor/timeline" >&2 || true
  cat "$WORKDIR/gateway5.log" >&2; exit 1; }
sink5_events="$(curl -fsS "http://$SINK_ADDR/events")"
echo "$sink5_events" | grep -q '"rule":"h_acc_gap"' || {
  echo "demo: sink events missing the h_acc_gap rule" >&2
  echo "$sink5_events" >&2; exit 1; }

# ---- Act 6: serving SLO observatory — burn rate triggers a profiled
# ---- incident capture under an open-loop ramp

# A 1ns budget puts every request over budget, so the burn-rate series
# hits 1/(1-target) = 100 at the first window close and the built-in
# serving_burn_rate rule (threshold 1.0, on by default) fires
# deterministically. The short -slo-window closes windows quickly and
# the short -profile-cpu keeps the capture fast.
echo "demo: restarting the gateway with a 1ns latency budget (SLO observatory act)"
kill -TERM "$GW_PID" && wait "$GW_PID" 2>/dev/null || true
"$WORKDIR/ppm-gateway" -backend "http://$SERVE_ADDR" -addr "$GW_ADDR" \
  -bundle "$WORKDIR/bundle" \
  -incident-dir "$WORKDIR/incidents6" \
  -slo-budget 1ns -slo-window 8 -profile-cpu 100ms \
  >"$WORKDIR/gateway6.log" 2>&1 &
GW_PID=$!
wait_for "http://$GW_ADDR/healthz"

echo "demo: driving an open-loop ramp (fixed arrival rate) through the gateway"
"$WORKDIR/ppm-traffic" send -target "http://$GW_ADDR" -dataset income \
  -batches 16 -rows 120 -rate 40 >"$WORKDIR/traffic6.log" 2>&1
grep -q 'latency (open loop @ 40.0/s): 16 requests, 0 errors' "$WORKDIR/traffic6.log" || {
  echo "demo: ppm-traffic open-loop latency summary missing or lossy:" >&2
  cat "$WORKDIR/traffic6.log" >&2; exit 1; }

echo "demo: asserting /slo reports the over-budget burn state"
slo_body="$(curl -fsS "http://$GW_ADDR/slo")"
echo "$slo_body" | grep -q '"stage":"request"' || {
  echo "demo: /slo missing the request stage:" >&2
  echo "$slo_body" >&2; exit 1; }
over="$(echo "$slo_body" | sed -n 's/.*"over_budget":\([0-9]*\).*/\1/p')"
if [ -z "$over" ] || [ "$over" -lt 16 ]; then
  echo "demo: /slo over_budget = '$over', want >= 16 under a 1ns budget" >&2
  echo "$slo_body" >&2; exit 1
fi

echo "demo: asserting the ppm_serving_* families on /metrics"
gw6_metrics="$(curl -fsS "http://$GW_ADDR/metrics")"
for fam in ppm_serving_stage_duration_seconds ppm_serving_inflight \
           ppm_serving_over_budget_total ppm_serving_burn_rate; do
  echo "$gw6_metrics" | grep -q "^# TYPE $fam " || {
    echo "demo: /metrics missing the $fam family" >&2; exit 1; }
done

echo "demo: waiting for the burn-rate alert to auto-capture a profiled bundle"
# The CPU profile takes -profile-cpu wall time after the firing edge;
# poll until the bundle shows up with the burn-rate trigger.
burn_ok=""
for _ in $(seq 50); do
  inc6_body="$(curl -fsS "http://$GW_ADDR/debug/incidents/latest" 2>/dev/null || true)"
  if echo "$inc6_body" | grep -q '"reason":"alert:serving_burn'; then
    burn_ok=1; break
  fi
  sleep 0.2
done
[ -n "$burn_ok" ] || {
  echo "demo: the burn-rate rule never captured an incident bundle:" >&2
  curl -fsS "http://$GW_ADDR/debug/incidents" >&2 || true
  cat "$WORKDIR/gateway6.log" >&2; exit 1; }
echo "$inc6_body" | grep -q '"cpu":"' || {
  echo "demo: burn-rate bundle carries no CPU pprof profile:" >&2
  echo "$inc6_body" | head -c 2000 >&2; exit 1; }
echo "$inc6_body" | grep -q '"exemplars":\[{' || {
  echo "demo: burn-rate bundle has no slow-request exemplars" >&2; exit 1; }

echo "demo: extracting the embedded pprof pair with ppm-diagnose"
"$WORKDIR/ppm-diagnose" -dir "$WORKDIR/incidents6" \
  -extract-profiles "$WORKDIR/profiles6" >"$WORKDIR/incident6.md" 2>"$WORKDIR/diagnose6.log"
grep -q '## Serving SLO' "$WORKDIR/incident6.md" || {
  echo "demo: ppm-diagnose report missing the serving SLO section:" >&2
  cat "$WORKDIR/incident6.md" >&2; exit 1; }
cpu_prof="$(ls "$WORKDIR"/profiles6/*-cpu.pprof 2>/dev/null | head -n 1)"
[ -n "$cpu_prof" ] && [ -s "$cpu_prof" ] || {
  echo "demo: -extract-profiles wrote no CPU pprof:" >&2
  cat "$WORKDIR/diagnose6.log" >&2; exit 1; }
go tool pprof -top "$cpu_prof" >/dev/null 2>&1 || {
  echo "demo: go tool pprof cannot read $cpu_prof" >&2; exit 1; }

# ---- Act 7: distributed tracing — a half-sampled ramp stitched into
# ---- one cross-process waterfall

# The head-sampling verdict is a pure function of the trace id, and
# ppm-traffic derives batch n's trace id from the workload seed — so at
# -trace-sample 0.5 the same batches sample on every run, and every
# process (gateway, backend, shadow monitor tap) agrees per trace with
# no coordination. Each process journals its sampled spans to its own
# -trace-dir; ppm-diagnose -trace merges the journals offline.
echo "demo: restarting the backend with a span journal (tracing act)"
kill -TERM "$SERVE_PID" && wait "$SERVE_PID" 2>/dev/null || true
"$WORKDIR/ppm-serve" -dataset income -model lr -rows 1200 -addr "$SERVE_ADDR" \
  -trace-dir "$WORKDIR/traces/backend" \
  >"$WORKDIR/serve7.log" 2>&1 &
SERVE_PID=$!
wait_for "http://$SERVE_ADDR/healthz" 300

echo "demo: restarting the gateway with a span journal"
kill -TERM "$GW_PID" && wait "$GW_PID" 2>/dev/null || true
"$WORKDIR/ppm-gateway" -backend "http://$SERVE_ADDR" -addr "$GW_ADDR" \
  -bundle "$WORKDIR/bundle" \
  -trace-dir "$WORKDIR/traces/gateway" \
  >"$WORKDIR/gateway7.log" 2>&1 &
GW_PID=$!
wait_for "http://$GW_ADDR/healthz"

echo "demo: driving a half-sampled clean ramp (-trace-sample 0.5)"
"$WORKDIR/ppm-traffic" send -target "http://$GW_ADDR" -dataset income \
  -batches 8 -rows 120 -trace-sample 0.5 | tee "$WORKDIR/traffic7.log"
grep -q 'sampled=true' "$WORKDIR/traffic7.log" || {
  echo "demo: no batch sampled at rate 0.5" >&2; exit 1; }
grep -q 'sampled=false' "$WORKDIR/traffic7.log" || {
  echo "demo: every batch sampled at rate 0.5" >&2; exit 1; }
tid="$(sed -n 's/.* trace_id \([0-9a-f]\{32\}\) sampled=true$/\1/p' "$WORKDIR/traffic7.log" | head -n 1)"
utid="$(sed -n 's/.* trace_id \([0-9a-f]\{32\}\) sampled=false$/\1/p' "$WORKDIR/traffic7.log" | head -n 1)"
[ -n "$tid" ] && [ -n "$utid" ] || {
  echo "demo: could not extract trace ids from the traffic log" >&2; exit 1; }

echo "demo: asserting the ppm_trace_* families on /metrics"
gw7_metrics="$(curl -fsS "http://$GW_ADDR/metrics")"
echo "$gw7_metrics" | grep -q '^# TYPE ppm_trace_sampled_total counter$' || {
  echo "demo: ppm_trace_sampled_total family missing from /metrics" >&2; exit 1; }
echo "$gw7_metrics" | grep -q '^ppm_trace_sampled_total [1-9]' || {
  echo "demo: no sampled traces accounted:" >&2
  echo "$gw7_metrics" | grep ppm_trace >&2 || true; exit 1; }

echo "demo: stitching the journals into the waterfall of trace $tid"
# Journals append live (one O_APPEND write per sampled root), so the
# stitcher runs against the running fleet; the monitor tap observes
# asynchronously, so poll until its span lands in the gateway journal.
JOURNALS7="gateway=$WORKDIR/traces/gateway,backend=$WORKDIR/traces/backend"
stitch_ok=""
for _ in $(seq 50); do
  if "$WORKDIR/ppm-diagnose" -trace "$tid" -journals "$JOURNALS7" \
       >"$WORKDIR/trace7.md" 2>/dev/null \
     && grep -q 'monitor_observe' "$WORKDIR/trace7.md"; then
    stitch_ok=1; break
  fi
  sleep 0.2
done
[ -n "$stitch_ok" ] || {
  echo "demo: trace $tid never stitched into a full waterfall:" >&2
  cat "$WORKDIR/trace7.md" >&2 || true
  cat "$WORKDIR/gateway7.log" >&2; exit 1; }

echo "demo: asserting the waterfall covers every hop under the shared trace id"
for span in gateway_request gateway_relay backend_predict monitor_observe; do
  grep -q "$span" "$WORKDIR/trace7.md" || {
    echo "demo: stitched waterfall missing the $span span:" >&2
    cat "$WORKDIR/trace7.md" >&2; exit 1; }
done
grep -q "$tid" "$WORKDIR/trace7.md" || {
  echo "demo: waterfall does not carry the shared trace id" >&2; exit 1; }

echo "demo: asserting the unsampled trace $utid left no spans in any journal"
if "$WORKDIR/ppm-diagnose" -trace "$utid" -journals "$JOURNALS7" >/dev/null 2>&1; then
  echo "demo: unsampled trace $utid has journaled spans" >&2; exit 1
fi

echo "demo: rendering the auto-picked waterfall as standalone HTML"
"$WORKDIR/ppm-diagnose" -trace auto -journals "$JOURNALS7" \
  -html "$WORKDIR/trace7.html" >/dev/null 2>"$WORKDIR/diagnose7.log"
grep -q '<html' "$WORKDIR/trace7.html" || {
  echo "demo: -html wrote no waterfall page:" >&2
  cat "$WORKDIR/diagnose7.log" >&2; exit 1; }

echo "demo: fetching the gateway's local fragment via /debug/traces"
frag_body="$(curl -fsS "http://$GW_ADDR/debug/traces/$tid")"
echo "$frag_body" | grep -q '"gateway_request"' || {
  echo "demo: /debug/traces/$tid missing the request span:" >&2
  echo "$frag_body" >&2; exit 1; }

# ---- Act 8: durable timeline — history survives a restart and
# ---- ppm-backtest bit-reproduces the live alert events

sink_before8="$(curl -fsS "http://$SINK_ADDR/count" | sed 's/[^0-9]//g')"

echo "demo: restarting the gateway with the durable timeline store (-tsdb-dir)"
kill -TERM "$GW_PID" && wait "$GW_PID" 2>/dev/null || true
"$WORKDIR/ppm-gateway" -backend "http://$SERVE_ADDR" -addr "$GW_ADDR" \
  -bundle "$WORKDIR/bundle" \
  -alert-rules "$WORKDIR/rules.json" -alert-webhook "http://$SINK_ADDR/" \
  -tsdb-dir "$WORKDIR/tsdb" \
  >"$WORKDIR/gateway8.log" 2>&1 &
GW_PID=$!
wait_for "http://$GW_ADDR/healthz"

echo "demo: driving the act-2 corruption ramp so the alert fires live"
"$WORKDIR/ppm-traffic" send -target "http://$GW_ADDR" -dataset income \
  -batches 6 -rows 300 -corrupt scaling -max-magnitude 0.95 -clean 2 \
  >"$WORKDIR/traffic8.log" 2>&1

echo "demo: waiting for the live alert to reach the webhook sink"
live_fire=""
for _ in $(seq 50); do
  events8="$(curl -fsS "http://$SINK_ADDR/events" 2>/dev/null || true)"
  live_fire="$(echo "$events8" | grep -o '{"rule":"accuracy_alarm"[^}]*"state":"firing"[^}]*}' | tail -n 1)"
  count="$(curl -fsS "http://$SINK_ADDR/count" | sed 's/[^0-9]//g')"
  if [ -n "$live_fire" ] && [ -n "$count" ] && [ "$count" -gt "${sink_before8:-0}" ]; then break; fi
  live_fire=""
  sleep 0.2
done
[ -n "$live_fire" ] || {
  echo "demo: the act-8 ramp never produced a live firing event:" >&2
  curl -fsS "http://$SINK_ADDR/events" >&2 || true
  cat "$WORKDIR/gateway8.log" >&2; exit 1; }
fire_widx="$(echo "$live_fire" | sed -n 's/.*"window_index":\([0-9]*\).*/\1/p')"

echo "demo: waiting for the alerting window to persist to /monitor/timeline/range"
range_ok=""
for _ in $(seq 50); do
  probe="$(curl -fsS "http://$GW_ADDR/monitor/timeline/range?from=0&to=0" 2>/dev/null || true)"
  max_idx="$(echo "$probe" | sed -n 's/.*"max_index":\([0-9]*\).*/\1/p')"
  if [ -n "$max_idx" ] && [ "$max_idx" -ge "${fire_widx:-0}" ]; then range_ok=1; break; fi
  sleep 0.2
done
[ -n "$range_ok" ] || {
  echo "demo: the durable store never caught up to window $fire_widx:" >&2
  echo "$probe" >&2
  cat "$WORKDIR/gateway8.log" >&2; exit 1; }
range_body="$(curl -fsS "http://$GW_ADDR/monitor/timeline/range?from=0&to=$max_idx")"
echo "$range_body" | grep -q '"estimate"' || {
  echo "demo: /monitor/timeline/range served no re-aggregated series:" >&2
  echo "$range_body" >&2; exit 1; }

echo "demo: restarting the gateway onto the same -tsdb-dir (history must survive)"
kill -TERM "$GW_PID" && wait "$GW_PID" 2>/dev/null || true
"$WORKDIR/ppm-gateway" -backend "http://$SERVE_ADDR" -addr "$GW_ADDR" \
  -bundle "$WORKDIR/bundle" \
  -tsdb-dir "$WORKDIR/tsdb" \
  >"$WORKDIR/gateway8b.log" 2>&1 &
GW_PID=$!
wait_for "http://$GW_ADDR/healthz"
survive="$(curl -fsS "http://$GW_ADDR/monitor/timeline/range?from=0&to=0")"
echo "$survive" | grep -q "\"max_index\":$max_idx" || {
  echo "demo: pre-restart history (through window $max_idx) did not survive:" >&2
  echo "$survive" >&2
  cat "$WORKDIR/gateway8b.log" >&2; exit 1; }

echo "demo: replaying the persisted windows with ppm-backtest"
"$WORKDIR/ppm-backtest" -tsdb-dir "$WORKDIR/tsdb" -rules "$WORKDIR/rules.json" \
  -json >"$WORKDIR/backtest8.json"
# The replay is deterministic: Event.At is the persisted window-close
# time, so the replayed firing event must equal the live webhook body
# byte for byte (the sink stored it verbatim; flattening whitespace
# only undoes -json's indentation).
tr -d ' \n' <"$WORKDIR/backtest8.json" | grep -qF "$live_fire" || {
  echo "demo: ppm-backtest did not reproduce the live firing event:" >&2
  echo "live: $live_fire" >&2
  cat "$WORKDIR/backtest8.json" >&2; exit 1; }

echo "demo: sweeping candidate thresholds over the persisted history"
"$WORKDIR/ppm-backtest" -tsdb-dir "$WORKDIR/tsdb" -rules "$WORKDIR/rules.json" \
  -sweep-rule accuracy_alarm -thresholds 0.5,1,2 >"$WORKDIR/sweep8.txt"
grep -q 'threshold' "$WORKDIR/sweep8.txt" || {
  echo "demo: threshold sweep produced no table:" >&2
  cat "$WORKDIR/sweep8.txt" >&2; exit 1; }

# ---- Act 9: ppm-monitor — batch CSVs, SIGTERM drain, offline replay

echo "demo: spooling five batch CSVs (three clean, two scaled) for ppm-monitor"
mkdir -p "$WORKDIR/spool9"
for i in 1 2 3; do
  "$WORKDIR/ppm-validate" genbatch -dataset income -rows 300 -seed "$i" \
    -out "$WORKDIR/spool9/0$i-clean.csv" >/dev/null
done
for i in 4 5; do
  "$WORKDIR/ppm-validate" genbatch -dataset income -rows 300 -seed "$i" \
    -corrupt scaling -magnitude 0.95 -out "$WORKDIR/spool9/0$i-scaled.csv" >/dev/null
done

sink_before9="$(curl -fsS "http://$SINK_ADDR/count" | sed 's/[^0-9]//g')"
echo "demo: starting ppm-monitor on $MON_ADDR with -tsdb-dir and the act-2 alert rule"
"$WORKDIR/ppm-monitor" -bundle "$WORKDIR/bundle" -watch "$WORKDIR/spool9" -labels \
  -interval 100ms -addr "$MON_ADDR" -tsdb-dir "$WORKDIR/tsdb9" \
  -alert-rules "$WORKDIR/rules.json" -alert-webhook "http://$SINK_ADDR/" \
  >"$WORKDIR/monitor9.log" 2>&1 &
MON_PID=$!
wait_for "http://$MON_ADDR/healthz"
scored=""
for _ in $(seq 100); do
  summary9="$(curl -fsS "http://$MON_ADDR/summary" 2>/dev/null || true)"
  if echo "$summary9" | grep -q '"Batches":5'; then scored=1; break; fi
  sleep 0.2
done
[ -n "$scored" ] || {
  echo "demo: ppm-monitor never scored the five spooled batches:" >&2
  echo "$summary9" >&2
  cat "$WORKDIR/monitor9.log" >&2; exit 1; }

echo "demo: SIGTERM to ppm-monitor mid-watch (must drain and exit 0)"
kill -TERM "$MON_PID"
mon_rc=0
wait "$MON_PID" || mon_rc=$?
MON_PID=""
[ "$mon_rc" -eq 0 ] || {
  echo "demo: ppm-monitor exited $mon_rc on SIGTERM:" >&2
  cat "$WORKDIR/monitor9.log" >&2; exit 1; }
sink_after9="$(curl -fsS "http://$SINK_ADDR/count" | sed 's/[^0-9]//g')"
[ "${sink_after9:-0}" -gt "${sink_before9:-0}" ] || {
  echo "demo: ppm-monitor's firing alert never reached the sink before exit" >&2
  cat "$WORKDIR/monitor9.log" >&2; exit 1; }

echo "demo: replaying ppm-monitor's sealed history with ppm-backtest"
"$WORKDIR/ppm-backtest" -tsdb-dir "$WORKDIR/tsdb9" -rules "$WORKDIR/rules.json" \
  -json >"$WORKDIR/backtest9.json"
tr -d ' \n' <"$WORKDIR/backtest9.json" | grep -q '"windows":5,' || {
  echo "demo: ppm-backtest did not read all five persisted windows:" >&2
  cat "$WORKDIR/backtest9.json" >&2; exit 1; }
grep -q '"state": "firing"' "$WORKDIR/backtest9.json" || {
  echo "demo: the replayed history holds no firing event:" >&2
  cat "$WORKDIR/backtest9.json" >&2; exit 1; }

echo "demo: OK — proxying, drift timeline, alerting, request correlation, incident capture, fleet federation, label feedback, the serving SLO observatory, cross-process trace stitching, the durable timeline store (restart-surviving history + bit-exact alert backtesting) and the batch-file monitor's SIGTERM drain all verified"
