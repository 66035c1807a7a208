package fed_test

// The distributed determinism suite — the contract DESIGN.md §13 pins:
// with serving batches dispatched round-robin across N replicas (batch
// i → replica i mod N, shard windows of k batches aligned against
// single-node windows of N·k), the merged fleet timeline is bit-equal
// to the timeline a single node closes over the union stream, and the
// alert engine reaches identical decisions (same events, same values,
// same window indices, fired exactly once). The matrix crosses
// predictor training parallelism (Workers ∈ {1,2,8}, the §8 contract)
// with shard counts {1,3,5}, driving real monitors through real
// /federate HTTP scrapes.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"blackboxval/internal/core"
	"blackboxval/internal/errorgen"
	"blackboxval/internal/fed"
	"blackboxval/internal/linalg"
	"blackboxval/internal/monitor"
	"blackboxval/internal/obs"
	"blackboxval/internal/obs/alert"
)

// detBatches builds the shared serving workload: clean leading batches,
// then a corruption ramp strong enough to drag the estimate below the
// alarm line. Probas are precomputed once so every topology observes
// the identical stream.
func detBatches(t *testing.T, f fixture, n, rows int) []*linalg.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	gen := errorgen.Scaling{}
	out := make([]*linalg.Matrix, n)
	clean := n / 3
	for i := range out {
		idx := make([]int, rows)
		for j := range idx {
			idx[j] = rng.Intn(f.serving.Len())
		}
		batch := f.serving.SelectRows(idx)
		if i >= clean {
			magnitude := float64(i-clean+1) / float64(n-clean)
			batch = gen.Corrupt(batch, magnitude, rng)
		}
		out[i] = f.model.PredictProba(batch)
	}
	return out
}

// alertEvent is the decision-relevant projection of an alert.Event
// (timestamps legitimately differ between runs).
type alertEvent struct {
	Rule   string
	State  string
	Value  float64
	Window int64
}

func project(evs []alert.Event) []alertEvent {
	out := make([]alertEvent, len(evs))
	for i, ev := range evs {
		out[i] = alertEvent{Rule: ev.Rule, State: ev.State, Value: ev.Value, Window: ev.WindowIndex}
	}
	return out
}

// collector gathers alert events in emission order.
type collector struct {
	mu  sync.Mutex
	evs []alert.Event
}

func (c *collector) Notify(ev alert.Event) {
	c.mu.Lock()
	c.evs = append(c.evs, ev)
	c.mu.Unlock()
}

func (c *collector) events() []alert.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]alert.Event(nil), c.evs...)
}

// detRule sits between the fixture's clean estimate regime (~0.70-0.75)
// and the corruption ramp's tail (~0.60-0.65); ClearWindows=3 keeps a
// noisy mid-ramp window from resolving and re-firing the excursion.
var detRule = alert.Rule{
	Name: "estimate_low", Series: "estimate", Op: "<", Threshold: 0.70,
	Reduce: "mean", ForWindows: 1, ClearWindows: 3,
}

func newEngine(t *testing.T, sink *collector) *alert.Engine {
	t.Helper()
	engine, err := alert.New(alert.Config{Rules: []alert.Rule{detRule}, Notifier: sink})
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

// trainDetPredictor trains the fixture predictor at an explicit worker
// count — §8 guarantees the result is bit-identical for every value.
func trainDetPredictor(t *testing.T, f fixture, workers int) *core.Predictor {
	t.Helper()
	pred, err := core.TrainPredictor(f.model, f.test, core.PredictorConfig{
		Generators:  errorgen.KnownTabular(),
		Repetitions: 15,
		ForestSizes: []int{20},
		Seed:        1,
		Workers:     workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

func detMonitor(t *testing.T, pred *core.Predictor, timelineWindow int) *monitor.Monitor {
	t.Helper()
	mon, err := monitor.New(monitor.Config{
		Predictor: pred, Threshold: 0.05, TimelineWindow: timelineWindow,
	})
	if err != nil {
		t.Fatal(err)
	}
	return mon
}

// runFleet feeds the batches round-robin into nShards monitors, serves
// them over HTTP, scrapes with an aggregator wired to a fresh alert
// engine, and returns the merged windows plus the fleet's alert events.
func runFleet(t *testing.T, pred *core.Predictor, batches []*linalg.Matrix, nShards int) ([]obs.Window, []alert.Event) {
	t.Helper()
	shards := make([]*monitor.Monitor, nShards)
	cfg := fed.Config{Interval: time.Hour, Timeout: 5 * time.Second, StaleAfter: time.Hour}
	for i := range shards {
		shards[i] = detMonitor(t, pred, 1)
		srv := httptest.NewServer(fed.ReplicaHandlerServing(shards[i], shardName(i), nil))
		t.Cleanup(srv.Close)
		cfg.Replicas = append(cfg.Replicas, fed.ReplicaConfig{Name: shardName(i), URL: srv.URL})
	}
	for i, p := range batches {
		shards[i%nShards].ObserveProba(p)
	}
	agg, err := fed.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := &collector{}
	engine := newEngine(t, sink)
	agg.OnWindowClose(engine.Evaluate)
	report := agg.ScrapeOnce(context.Background())
	if len(report.Errors) != 0 {
		t.Fatalf("fleet scrape errors: %+v", report.Errors)
	}
	return agg.Windows(), sink.events()
}

// runSingle feeds the union stream into one monitor whose windows span
// nShards batches, and replays its timeline through the same rule.
func runSingle(t *testing.T, pred *core.Predictor, batches []*linalg.Matrix, nShards int) ([]obs.Window, []alert.Event) {
	t.Helper()
	mon := detMonitor(t, pred, nShards)
	sink := &collector{}
	engine := newEngine(t, sink)
	mon.Timeline().OnWindowClose(engine.Evaluate)
	for _, p := range batches {
		mon.ObserveProba(p)
	}
	return mon.Timeline().Windows(), sink.events()
}

// TestFleetBitEqualSingleNode is the matrix: every (workers, shards)
// cell must produce a merged timeline bit-equal to the single-node
// union-stream timeline and identical alert decisions. Within one
// workers value the single-node run is shared across shard counts;
// across workers values the runs must also agree with each other.
func TestFleetBitEqualSingleNode(t *testing.T) {
	f := getFixture(t)
	const windows = 4
	var crossWorkers map[int]string // shards -> canonical fleet timeline

	for _, workers := range []int{1, 2, 8} {
		pred := trainDetPredictor(t, f, workers)

		for _, nShards := range []int{1, 3, 5} {
			name := fmt.Sprintf("workers=%d/shards=%d", workers, nShards)
			// Each topology gets a stream sized to close exactly
			// `windows` windows, with its own clean head and ramp tail.
			stream := detBatches(t, f, nShards*windows, 40)
			singleWs, singleEvents := runSingle(t, pred, stream, nShards)
			fleetWs, fleetEvents := runFleet(t, pred, stream, nShards)
			if len(singleWs) != windows || len(fleetWs) != windows {
				t.Fatalf("%s: closed %d fleet / %d single windows, want %d",
					name, len(fleetWs), len(singleWs), windows)
			}
			var fleetCanon string
			for i := range fleetWs {
				got := canonicalWindow(t, fleetWs[i], true)
				want := canonicalWindow(t, singleWs[i], false)
				if got != want {
					t.Fatalf("%s window %d: merged != union\nmerged: %s\nunion:  %s",
						name, i, got, want)
				}
				fleetCanon += got + "\n"
			}

			// Alert parity: same decisions, same values, same windows —
			// and the excursion fires exactly once.
			gotEvents, wantEvents := project(fleetEvents), project(singleEvents)
			if fmt.Sprint(gotEvents) != fmt.Sprint(wantEvents) {
				t.Fatalf("%s: alert events diverge\nfleet:  %v\nsingle: %v",
					name, gotEvents, wantEvents)
			}
			firing := 0
			for _, ev := range gotEvents {
				if ev.State == "firing" {
					firing++
				}
			}
			if firing != 1 {
				t.Fatalf("%s: %d firing events, want exactly 1 (%v)", name, firing, gotEvents)
			}

			// Cross-workers: the same shard count must yield the same
			// bytes regardless of training parallelism.
			if crossWorkers == nil {
				crossWorkers = map[int]string{}
			}
			if prev, ok := crossWorkers[nShards]; ok {
				if prev != fleetCanon {
					t.Fatalf("%s: fleet timeline differs across workers values", name)
				}
			} else {
				crossWorkers[nShards] = fleetCanon
			}
		}
	}
}

// TestAggregatorOfOneIsTransparent pins that federating a single
// replica adds nothing but the enrichment series: the merged windows
// equal the replica's own timeline byte-for-byte once fleet_* series
// and wall-clock times are stripped.
func TestAggregatorOfOneIsTransparent(t *testing.T) {
	f := getFixture(t)
	batches := detBatches(t, f, 6, 40)
	mon := detMonitor(t, f.pred, 1)
	for _, p := range batches {
		mon.ObserveProba(p)
	}
	srv := httptest.NewServer(fed.ReplicaHandlerServing(mon, "solo", nil))
	defer srv.Close()
	agg, err := fed.New(fed.Config{
		Replicas: []fed.ReplicaConfig{{Name: "solo", URL: srv.URL}},
		Interval: time.Hour, Timeout: 5 * time.Second, StaleAfter: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	agg.ScrapeOnce(context.Background())
	raw := mon.Timeline().Windows()
	merged := agg.Windows()
	if len(merged) != len(raw) {
		t.Fatalf("merged %d windows, raw %d", len(merged), len(raw))
	}
	for i := range merged {
		if canonicalWindow(t, merged[i], true) != canonicalWindow(t, raw[i], false) {
			t.Fatalf("window %d: aggregator-of-one altered the timeline", i)
		}
		// The fleet drift statistics must be present and genuine: the
		// merged serving distribution against the replica's references.
		if _, ok := merged[i].Series["fleet_ks_max"]; !ok {
			t.Fatalf("window %d lacks fleet_ks_max", i)
		}
	}
	// The ramp's corrupted tail must show more fleet-level drift than
	// the clean head — the KS statistic is computed over true merged
	// distributions, so it must react to the corruption.
	head := merged[0].Series["fleet_ks_max"].Last
	tail := merged[len(merged)-1].Series["fleet_ks_max"].Last
	if !(tail > head) {
		t.Fatalf("fleet KS did not respond to the ramp: head %v tail %v", head, tail)
	}
}

// TestFleetDocReExportMergesDownstream pins hierarchical federation:
// an aggregator's /federate re-export must itself be a valid replica
// document that a second-tier aggregator can scrape and reproduce.
func TestFleetDocReExportMergesDownstream(t *testing.T) {
	f := getFixture(t)
	batches := detBatches(t, f, 6, 40)
	const nShards = 3
	fleetWs, _ := runFleet(t, f.pred, batches, nShards)

	// Rebuild the same fleet, then stack a tier-2 aggregator on tier-1.
	shards := make([]*monitor.Monitor, nShards)
	cfg := fed.Config{Interval: time.Hour, Timeout: 5 * time.Second, StaleAfter: time.Hour}
	for i := range shards {
		shards[i] = detMonitor(t, f.pred, 1)
		srv := httptest.NewServer(fed.ReplicaHandlerServing(shards[i], shardName(i), nil))
		t.Cleanup(srv.Close)
		cfg.Replicas = append(cfg.Replicas, fed.ReplicaConfig{Name: shardName(i), URL: srv.URL})
	}
	for i, p := range batches {
		shards[i%nShards].ObserveProba(p)
	}
	tier1, err := fed.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tier1.ScrapeOnce(context.Background())
	tier1Srv := httptest.NewServer(tier1.Handler())
	defer tier1Srv.Close()

	tier2, err := fed.New(fed.Config{
		Replicas: []fed.ReplicaConfig{{Name: "fleet", URL: tier1Srv.URL + "/federate"}},
		Interval: time.Hour, Timeout: 5 * time.Second, StaleAfter: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	tier2.ScrapeOnce(context.Background())
	tier2Ws := tier2.Windows()
	if len(tier2Ws) != len(fleetWs) {
		t.Fatalf("tier-2 merged %d windows, tier-1 %d", len(tier2Ws), len(fleetWs))
	}
	for i := range tier2Ws {
		if canonicalWindow(t, tier2Ws[i], true) != canonicalWindow(t, fleetWs[i], true) {
			t.Fatalf("window %d: tier-2 re-merge diverged from tier-1", i)
		}
	}
}
