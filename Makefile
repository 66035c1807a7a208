# Tier-1 gate for this repository (see README.md "Install"): every
# change must keep `make check` green. The race target exercises the
# parallel meta-dataset builder (internal/core/parallel.go), the forest
# trainer, the serving-path packages (gateway proxy + monitor, whose
# shadow tap, /metrics scrape and dashboard are hit concurrently in
# production), and the telemetry registry/span tree plus the alert
# engine, incident flight recorder and durable timeline store
# (internal/obs/...), the label-feedback store (internal/labels) and
# the monitoring-node composition (internal/cli TestNode*) under the
# race detector in short mode.

GO ?= go

.PHONY: check lint vet build test race bench bench-gateway demo audit fuzz

check: vet build test race

lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	# Prometheus exposition-format conformance (obs.Lint) across every
	# registry that serves a /metrics endpoint.
	$(GO) test -run 'Lint|Conformance' ./internal/obs/... ./internal/gateway/... ./internal/monitor/... ./internal/fed/...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -short -race ./internal/core/... ./internal/models/... ./internal/gateway/... ./internal/monitor/... ./internal/obs/... ./internal/stats/... ./internal/fed/... ./internal/labels/...
	# The node composition (internal/cli/node.go): its watch loop, server
	# and closers run concurrently on shutdown. Only TestNode*: the whole
	# cli package takes minutes under the race detector.
	$(GO) test -short -race -run TestNode ./internal/cli/

# Speedup table for EXPERIMENTS.md ("Parallel training" section).
bench:
	$(GO) test -run NONE -bench 'BenchmarkTrainPredictor' -benchtime 20x .

# Proxy-hop overhead table for EXPERIMENTS.md ("Gateway overhead").
bench-gateway:
	$(GO) test -run NONE -bench 'BenchmarkGatewayOverhead' -benchtime 1000x ./internal/gateway/

# Nine-act smoke test: proxying + /metrics, shadow validation with
# alerting, incident capture with drift attribution, fleet federation
# with stale-shard degradation, lagged label feedback, the serving
# SLO observatory (open-loop ramp past the burn-rate threshold,
# alert-triggered profile capture), distributed tracing (sampled
# ramp stitched across per-process span journals), the durable
# timeline store (history surviving a restart, ppm-backtest
# bit-reproducing the live alert events), and ppm-monitor draining on
# SIGTERM (alert delivered, history replayable) — see scripts/demo.sh.
demo:
	bash scripts/demo.sh

# Deep pass over the serving-path observability stack: format/exposition
# lint, vet, and the race detector (full, not -short) across the
# telemetry store + alert engine + incident flight recorder + trace
# journal/stitcher + durable timeline store (internal/obs/... includes
# internal/obs/incident and internal/obs/tsdb, whose readers run
# against appends, background compaction and retention in
# TestConcurrentReadsDuringMaintenance), the
# gateway, the monitor, the mergeable sketches (internal/stats) and the
# federation aggregator (internal/fed, whose /federate handler and
# ScrapeOnce run concurrently with ObserveRow in production). `make
# check` stays the broad tier-1 gate; `audit` is the focused one to run
# after touching the timeline, alerting, incident, correlation, tracing
# or federation code.
audit: lint
	$(GO) vet ./internal/obs/... ./internal/gateway/... ./internal/monitor/... ./internal/stats/... ./internal/fed/... ./internal/labels/...
	$(GO) test -race ./internal/obs/... ./internal/gateway/... ./internal/monitor/... ./internal/stats/... ./internal/fed/... ./internal/labels/...

# Short coverage-guided fuzz budgets for the deterministic-merge
# invariants — sketch merge (associativity/commutativity vs the union
# stream) and the serialized round-trips — the KS test's NaN/±Inf rule
# (every call returns, equal to KS on the NaN-stripped samples), plus
# the attacker-facing wire decoders: the /labels ingestion body, the
# W3C traceparent header parser (every proxied request runs it), the
# on-disk segment decoder (which must keep the valid prefix of any torn
# or corrupted segment file without panicking, and decode any run of
# records read through the record index exactly as the whole file), the /predict_proba
# codec, differentially against encoding/json: request decode and
# response parse must agree on accept/reject and decode bit-equal
# values, and the response encoder must write json.Encoder's bytes —
# and the remaining readers of untrusted bytes: incident bundles
# (loaded bundles must render), span journals (only named spans come
# back, and they stitch), /federate documents (a scrape-and-merge cycle
# never panics and wrong versions are rejected) and the batch CSVs
# ppm-monitor reads (type inference and the write/read round trip).
fuzz:
	$(GO) test -run NONE -fuzz FuzzKLLMerge -fuzztime 10s ./internal/stats
	$(GO) test -run NONE -fuzz FuzzKLLRoundTrip -fuzztime 10s ./internal/stats
	$(GO) test -run NONE -fuzz FuzzLatencyHistMerge -fuzztime 10s ./internal/stats
	$(GO) test -run NONE -fuzz FuzzKolmogorovSmirnov -fuzztime 10s ./internal/stats
	$(GO) test -run NONE -fuzz FuzzLabelsDecode -fuzztime 10s ./internal/labels
	$(GO) test -run NONE -fuzz FuzzTraceparentParse -fuzztime 10s ./internal/obs
	$(GO) test -run NONE -fuzz FuzzSegmentDecode -fuzztime 10s ./internal/obs/tsdb
	$(GO) test -run NONE -fuzz FuzzDecodeRequest -fuzztime 10s -fuzzminimizetime 2s ./internal/cloud
	$(GO) test -run NONE -fuzz FuzzParseProbaResponse -fuzztime 10s -fuzzminimizetime 2s ./internal/cloud
	$(GO) test -run NONE -fuzz FuzzEncodeProbaResponse -fuzztime 10s -fuzzminimizetime 2s ./internal/cloud
	$(GO) test -run NONE -fuzz FuzzLoadBundle -fuzztime 10s -fuzzminimizetime 2s ./internal/obs/incident
	$(GO) test -run NONE -fuzz FuzzReadJournalDir -fuzztime 10s -fuzzminimizetime 2s ./internal/obs
	$(GO) test -run NONE -fuzz FuzzFederateDoc -fuzztime 10s -fuzzminimizetime 2s ./internal/fed
	$(GO) test -run NONE -fuzz FuzzInferCSV -fuzztime 10s -fuzzminimizetime 2s ./internal/frame
	$(GO) test -run NONE -fuzz FuzzCSVRoundTrip -fuzztime 10s -fuzzminimizetime 2s ./internal/frame
