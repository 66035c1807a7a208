package main

// The load generator: a single-process client over at most Conns
// loopback connections. Open-loop phases send on a seeded schedule and
// time each request from its due time; closed-loop phases send the next
// request when the previous one returns. Every response is checked.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blackboxval/internal/fed"
	"blackboxval/internal/obs"
	"blackboxval/internal/obs/tsdb"
)

// Phases of a run.
const (
	phaseOpen = "open"
	phaseRead = "read"
	phaseSat  = "sat"
)

// op is one request the generator made.
type op struct {
	Kind  string // "write" or a reader kind
	ID    string // request id (writes)
	Batch int    // pool index (writes)
	Read  readOp // reader request (reads)
	Due   time.Time
	Sent  time.Time
	Done  time.Time
	Bytes int
	Err   string // empty when the request succeeded and passed its checks
	// Closed is how many windows a reader answer shows persisted (0 =
	// the answer does not tell).
	Closed int64
}

func (o *op) ok() bool { return o.Err == "" }

// latency is the request's time from due to done.
func (o *op) latency() time.Duration { return o.Done.Sub(o.Due) }

// conn is one loopback connection of the generator.
func newConn() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// runner drives the system in the child process.
type runner struct {
	w      *workload
	rm     *remote
	url    string
	pool   []servedBatch // request bodies with the backend's answers
	conns  []*http.Client
	served atomic.Int64 // writes answered 2xx, warm-up included
}

func newRunner(w *workload, rm *remote, pool []servedBatch) *runner {
	r := &runner{w: w, rm: rm, url: rm.ready.URL, pool: pool}
	for i := 0; i < w.Conns; i++ {
		r.conns = append(r.conns, newConn())
	}
	return r
}

func (r *runner) close() {
	for _, c := range r.conns {
		c.CloseIdleConnections()
	}
}

// write posts one pool batch and checks that the relayed body is the
// backend's answer for that batch, byte for byte.
func (r *runner) write(c *http.Client, o *op) {
	b := &r.pool[o.Batch]
	o.Kind = "write"
	req, err := http.NewRequest(http.MethodPost, r.url+"/predict_proba", bytes.NewReader(b.Body))
	if err != nil {
		o.Err = err.Error()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, o.ID)
	o.Sent = time.Now()
	resp, err := c.Do(req)
	if err != nil {
		o.Done = time.Now()
		o.Err = err.Error()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.Done = time.Now()
	o.Bytes = len(body)
	switch {
	case err != nil:
		o.Err = err.Error()
	case resp.StatusCode != http.StatusOK:
		o.Err = fmt.Sprintf("status %d", resp.StatusCode)
	default:
		r.served.Add(1)
		if !bytes.Equal(body, b.Want) {
			o.Err = "relayed body differs from the backend's answer"
		} else if got := resp.Header.Get(obs.RequestIDHeader); got != o.ID {
			o.Err = fmt.Sprintf("request id %q echoed as %q", o.ID, got)
		}
	}
}

// read performs one reader request and checks its answer.
func (r *runner) read(c *http.Client, o *op) {
	o.Kind = o.Read.Kind
	o.Sent = time.Now()
	resp, err := c.Get(r.url + o.Read.path())
	if err != nil {
		o.Done = time.Now()
		o.Err = err.Error()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.Done = time.Now()
	o.Bytes = len(body)
	switch {
	case err != nil:
		o.Err = err.Error()
	case resp.StatusCode != http.StatusOK:
		o.Err = fmt.Sprintf("status %d", resp.StatusCode)
	default:
		closed, err := checkRead(o.Read, body)
		if err != nil {
			o.Err = err.Error()
		}
		o.Closed = closed
	}
}

// checkRead verifies a reader answer — range answers cover exactly the
// windows asked for (all of them were persisted before the request), a
// /federate document decodes, /metrics carries the gateway's families —
// and returns how many windows the answer shows persisted.
func checkRead(q readOp, body []byte) (int64, error) {
	want := q.To - q.From + 1
	switch q.Kind {
	case readSeries:
		var doc tsdb.SeriesRangeDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			return 0, fmt.Errorf("range: %w", err)
		}
		var span, windows int64
		prev := int64(-1)
		for _, p := range doc.Points {
			if p.Index < q.From || p.Index > q.To || p.Index <= prev {
				return 0, fmt.Errorf("range: point index %d outside [%d,%d] or out of order", p.Index, q.From, q.To)
			}
			prev = p.Index
			span += p.Span
			windows += p.Windows
		}
		if span != want || windows != want {
			return 0, fmt.Errorf("range %s [%d,%d]: covers %d spans / %d windows, want %d", q.Series, q.From, q.To, span, windows, want)
		}
		return doc.MaxIndex + 1, nil
	case readWindows:
		var doc tsdb.RangeDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			return 0, fmt.Errorf("range: %w", err)
		}
		var span int64
		for _, s := range doc.Spans {
			span += s
		}
		if span != want || len(doc.Spans) != len(doc.Windows) {
			return 0, fmt.Errorf("range [%d,%d]: covers %d windows, want %d", q.From, q.To, span, want)
		}
		return doc.MaxIndex + 1, nil
	case readFederate:
		var doc fed.Doc
		if err := json.Unmarshal(body, &doc); err != nil {
			return 0, fmt.Errorf("federate: %w", err)
		}
		if doc.Version != fed.DocVersion || len(doc.Windows) == 0 || doc.Observed == 0 || len(doc.References) == 0 {
			return 0, fmt.Errorf("federate: version %d, %d windows, %d observed", doc.Version, len(doc.Windows), doc.Observed)
		}
		// The newest committed record's window may still be closing.
		return int64(doc.Observed) - 1, nil
	case readMetrics:
		if !bytes.Contains(body, []byte("gateway_requests_total{")) {
			return 0, fmt.Errorf("metrics: gateway_requests_total missing")
		}
	}
	return 0, nil
}

// openLoop sends the arrivals on schedule from start over the given
// connections. late receives each dispatch's lateness against its due
// time (the generator's own delay, not the system's).
func (r *runner) openLoop(start time.Time, arr []arrival, conns []*http.Client) (ops []op, late []float64) {
	ops = make([]op, len(arr))
	late = make([]float64, len(arr))
	work := make(chan int, len(arr)) // one slot per arrival: the dispatcher never blocks
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range work {
				r.write(c, &ops[i])
			}
		}(c)
	}
	for i, a := range arr {
		due := start.Add(a.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = float64(time.Since(due)) / 1e6
		ops[i] = op{ID: a.ID, Batch: a.Batch, Due: due}
		work <- i
	}
	close(work)
	wg.Wait()
	return ops, late
}

// closedWrites keeps every connection busy with writes until end.
func (r *runner) closedWrites(phase string, end time.Time, seed int64) []op {
	var mu sync.Mutex
	var all []op
	var wg sync.WaitGroup
	for ci, c := range r.conns {
		wg.Add(1)
		go func(ci int, c *http.Client) {
			defer wg.Done()
			rng := rngFor(seed, streamSat+uint64(ci)<<8)
			var ops []op
			for n := 0; time.Now().Before(end); n++ {
				o := op{ID: fmt.Sprintf("%s-%d-%06d", phase, ci, n), Batch: rng.Intn(len(r.pool))}
				o.Due = time.Now()
				r.write(c, &o)
				ops = append(ops, o)
			}
			mu.Lock()
			all = append(all, ops...)
			mu.Unlock()
		}(ci, c)
	}
	wg.Wait()
	return all
}

// closedReads runs the reader mix on one connection until end. closed
// starts as the number of windows known to be persisted and follows the
// answers, which report the store's extent.
func (r *runner) closedReads(end time.Time, c *http.Client, seed, closed int64) []op {
	mix := newReadMix(r.w.RangeReads, rngFor(seed, streamReads))
	var ops []op
	for time.Now().Before(end) {
		o := op{Read: mix.next(closed)}
		o.Due = time.Now()
		r.read(c, &o)
		closed = max(closed, o.Closed)
		ops = append(ops, o)
	}
	return ops
}

// warmUp exercises every request kind once per connection so lazy
// set-up (connection dials, first-hit paths) finishes before timing.
func (r *runner) warmUp() {
	for i, c := range r.conns {
		for k := 0; k < 4; k++ {
			o := op{ID: fmt.Sprintf("warm-%d-%d", i, k), Batch: k % len(r.pool)}
			r.write(c, &o)
		}
		for _, kind := range []string{readFederate, readMetrics} {
			o := op{Read: readOp{Kind: kind}}
			r.read(c, &o)
		}
	}
}

// metricSeries returns the samples of one metric family from a
// Prometheus text exposition, keyed by their label set ("" when
// unlabelled).
func metricSeries(text, name string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		i := strings.LastIndexByte(rest, ' ')
		var v float64
		if _, err := fmt.Sscan(rest[i+1:], &v); err != nil {
			continue
		}
		out[strings.TrimSpace(rest[:i])] = v
	}
	return out
}
