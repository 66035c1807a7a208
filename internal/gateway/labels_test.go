package gateway

// End-to-end label-feedback flow through the serving proxy: a client
// posts a batch, keeps the X-Request-ID the gateway pinned on the
// response, and later POSTs the true labels for those rows back to
// /labels — the store joins them against what the shadow tap observed
// under that id and reports the Bayesian assessment on /labels/status.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"blackboxval/internal/cloud"
	"blackboxval/internal/labels"
	"blackboxval/internal/obs"
)

func TestLabelFeedbackJoinThroughGateway(t *testing.T) {
	f := getFixture(t)
	mon := newMonitor(t, f)
	store, err := labels.New(labels.Config{Timeline: mon.Timeline()})
	if err != nil {
		t.Fatal(err)
	}
	mon.OnObserve(store.ObserveBatch)
	g, _ := newGateway(t, Config{Monitor: mon}, cloud.NewServer(f.model).Handler())
	// The daemons mount the label store beside the gateway's handler
	// (cli.Node.Routes); do the same on an outer mux.
	mux := http.NewServeMux()
	mux.Handle("/", g.Handler())
	mux.Handle("/labels", store.Handler())
	mux.Handle("/labels/", store.Handler())
	gwSrv := httptest.NewServer(mux)
	t.Cleanup(gwSrv.Close)

	resp, respBody := post(t, gwSrv.URL, encodeBatch(t, f.serving))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxy status %d", resp.StatusCode)
	}
	id := resp.Header.Get(obs.RequestIDHeader)
	if id == "" {
		t.Fatal("no X-Request-ID on the serving response")
	}
	proba, _, err := cloud.ParseProbaResponse(respBody)
	if err != nil {
		t.Fatal(err)
	}
	waitObserved(t, g, 1)
	// The shadow tap hands batches to observers asynchronously; wait for
	// the join state to know the id before posting labels.
	deadline := time.Now().Add(5 * time.Second)
	for store.Snapshot().PendingBatches == 0 {
		if time.Now().After(deadline) {
			t.Fatal("label store never saw the shadow-observed batch")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Label every row with the model's own argmax so the joined accuracy
	// is exactly 1 — a fixed point that pins the join, not the model.
	labelVals := make([]int, proba.Rows)
	for i := 0; i < proba.Rows; i++ {
		best := 0
		for j := 1; j < proba.Cols; j++ {
			if proba.At(i, j) > proba.At(i, best) {
				best = j
			}
		}
		labelVals[i] = best
	}
	payload, _ := json.Marshal(labelVals)
	body := fmt.Sprintf(`{"records":[{"request_id":%q,"labels":%s}]}`, id, payload)
	lresp, err := http.Post(gwSrv.URL+"/labels", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	if lresp.StatusCode != http.StatusOK {
		t.Fatalf("/labels status %d", lresp.StatusCode)
	}
	var res labels.IngestResult
	if err := json.NewDecoder(lresp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.JoinedRows != int64(proba.Rows) {
		t.Fatalf("joined %d rows, want %d (%+v)", res.JoinedRows, proba.Rows, res)
	}

	st, err := http.Get(gwSrv.URL + "/labels/status")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var snap labels.Snapshot
	if err := json.NewDecoder(st.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.RowsLabeled != int64(proba.Rows) || snap.RowsCorrect != snap.RowsLabeled {
		t.Fatalf("status snapshot %+v, want all %d rows labeled correct", snap, proba.Rows)
	}
	if snap.Overall.Mean <= 0.9 {
		t.Fatalf("posterior mean %v after an all-correct join", snap.Overall.Mean)
	}
}
