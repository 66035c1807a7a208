package fed_test

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"blackboxval/internal/fed"
	"blackboxval/internal/obs"
)

// FuzzFederateDoc serves arbitrary bytes as one replica's /federate
// document beside a well-formed replica and runs a scrape-and-merge
// cycle: the aggregator must not panic on anything a replica sends,
// and a document with the wrong wire version must count as that
// replica's scrape error.
func FuzzFederateDoc(f *testing.F) {
	ts, err := obs.NewTimeSeries(obs.TimeSeriesConfig{Capacity: 8})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ts.Record("estimate", 0.8-0.1*float64(i))
		ts.Record("ks_max", 0.1*float64(i))
		ts.Commit()
	}
	good, err := json.Marshal(tsDoc(ts, "good"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{"version":2,"windows":[]}`))
	f.Add([]byte(`{"version":1,"window_batches":-1,"capacity":-5,"quantiles":[2,-1],"windows":[{"index":-3},{"index":9e18}]}`))
	f.Add([]byte(`{"version":1,"windows":[{"index":0,"series":{"estimate":{"count":1,"sketch":{"k":0}}}}]}`))

	goodSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write(good)
	}))
	defer goodSrv.Close()
	var current atomic.Pointer[[]byte]
	fuzzed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write(*current.Load())
	}))
	defer fuzzed.Close()
	f.Fuzz(func(t *testing.T, body []byte) {
		current.Store(&body)
		// Scrape failures log a warning each; discard them so the fuzz
		// worker never blocks on a full output pipe.
		agg := newAggregator(t, []string{goodSrv.URL, fuzzed.URL}, func(c *fed.Config) {
			c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
		})
		report := agg.ScrapeOnce(context.Background())
		agg.TimelineDoc()
		agg.FleetDoc()
		agg.Status()
		agg.FleetServing()

		var doc fed.Doc
		if json.Unmarshal(body, &doc) == nil && doc.Version != fed.DocVersion {
			if _, failed := report.Errors[shardName(1)]; !failed {
				t.Fatalf("version %d document accepted", doc.Version)
			}
		}
	})
}
