package main

// The system under test runs in a child process of the load generator,
// so the generator's goroutines never queue on the system's Go
// scheduler and the system's CPU and memory are its own. The child is
// the same binary started with PERFBENCH_CHILD set: it sets the system
// up, writes the backend's answers for the request pool to a file,
// prints one ready line, and then serves the system plus a control
// endpoint on a second loopback listener until told to quit or until
// its stdin closes. The control endpoint only reads state between
// phases; it is not part of the load.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"blackboxval/internal/gateway"
)

// childEnv carries the child's configuration.
const childEnv = "PERFBENCH_CHILD"

// childConfig is what the parent tells the child.
type childConfig struct {
	Workload *workload `json:"workload"`
	Seed     int64     `json:"seed"`
	Traced   bool      `json:"traced"`
	Dir      string    `json:"dir"`
}

// readyMsg is the child's one line on stdout once set-up is done.
type readyMsg struct {
	URL       string    `json:"url"`
	Ctl       string    `json:"ctl"`
	SetupS    []float64 `json:"setup_s"`
	TestScore float64   `json:"test_score"`
	PoolFile  string    `json:"pool_file"`
}

// answer is one pool batch's expected response and true accuracy.
type answer struct {
	Want []byte  `json:"want"`
	Acc  float64 `json:"acc"`
}

// childMain runs the child and returns its exit code.
func childMain() int {
	var cfg childConfig
	if err := json.Unmarshal([]byte(os.Getenv(childEnv)), &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child: bad configuration:", err)
		return 2
	}
	if cfg.Workload == nil {
		fmt.Fprintln(os.Stderr, "perfbench child: no workload")
		return 2
	}
	if err := serveChild(cfg.Workload, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

func serveChild(w *workload, cfg childConfig) error {
	pool, err := generatePool(w, cfg.Seed)
	if err != nil {
		return err
	}
	// Set up SetupReps times and keep the last system; setup_s is the
	// median, so one slow set-up does not move it.
	var s *system
	var scored []servedBatch
	var setupS []float64
	for k := 0; k < w.SetupReps; k++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var oracle time.Duration
		s, oracle, err = setup(w, cfg.Seed, filepath.Join(cfg.Dir, fmt.Sprintf("setup-%d", k)), cfg.Traced, pool, scored)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, (time.Since(t0) - oracle).Seconds())
		scored = s.pool
	}
	defer s.close()

	answers := make([]answer, len(s.pool))
	for i, b := range s.pool {
		answers[i] = answer{Want: b.Want, Acc: b.Acc}
	}
	poolFile := filepath.Join(cfg.Dir, "answers.json")
	raw, err := json.Marshal(answers)
	if err != nil {
		return err
	}
	if err := os.WriteFile(poolFile, raw, 0o644); err != nil {
		return err
	}

	c := &control{s: s, quit: make(chan struct{})}
	ctl := httptest.NewServer(c.handler())
	defer ctl.Close()
	msg := readyMsg{URL: s.front.URL, Ctl: ctl.URL, SetupS: setupS, TestScore: s.testScore, PoolFile: poolFile}
	if err := printJSONLine(os.Stdout, msg); err != nil {
		return err
	}
	// Quit on request, or when the parent goes away and stdin closes.
	go func() {
		io.Copy(io.Discard, os.Stdin)
		c.stop()
	}()
	<-c.quit
	return nil
}

// control serves the child's control endpoint.
type control struct {
	s        *system
	quit     chan struct{}
	quitOnce sync.Once
	probe    *childProbe
}

func (c *control) stop() { c.quitOnce.Do(func() { close(c.quit) }) }

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (c *control) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/drain", func(w http.ResponseWriter, r *http.Request) {
		served, _ := strconv.ParseInt(r.URL.Query().Get("served"), 10, 64)
		ok := c.s.waitDrain(served, 10*time.Second)
		writeJSON(w, drainResult{OK: ok, Committed: c.s.verdict.snapshot().Committed})
	})
	mux.HandleFunc("/verdicts", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.s.verdict.snapshot())
	})
	mux.HandleFunc("/cpu", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, usage{CPU: cpuTime(), PeakRSSMB: peakRSSMB()})
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.s.gw.SLO())
	})
	mux.HandleFunc("/trace/start", func(w http.ResponseWriter, r *http.Request) {
		origin, _ := strconv.ParseInt(r.URL.Query().Get("origin"), 10, 64)
		c.probe = startChildProbe(c.s, origin)
		writeJSON(w, c.s.stats())
	})
	mux.HandleFunc("/trace/stop", func(w http.ResponseWriter, r *http.Request) {
		res := probeResult{Stats: c.s.stats()}
		if c.probe != nil {
			res.DepthMax, res.CPU = c.probe.stop()
		}
		writeJSON(w, res)
	})
	mux.HandleFunc("/backend", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.s.timer.snapshot())
	})
	mux.HandleFunc("/layers", func(w http.ResponseWriter, r *http.Request) {
		var req layersRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := runLayers(c.s, req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, res)
	})
	mux.HandleFunc("/quit", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]bool{"ok": true})
		c.stop()
	})
	return mux
}

// usage is the child's resource use so far.
type usage struct {
	CPU       time.Duration `json:"cpu_ns"`
	PeakRSSMB float64       `json:"peak_rss_mb"`
}

// sysStats are counters the traced run diffs across the phases.
type sysStats struct {
	Fates     map[string]float64 `json:"fates"`
	Requests  int64              `json:"requests"`
	Journal   int64              `json:"journal"`
	TSDBBytes int64              `json:"tsdb_bytes"`
}

// childProbe polls the shadow queue depth and samples process CPU in
// the child while the traced run's phases run.
type childProbe struct {
	quit     chan struct{}
	done     chan struct{}
	depthMax float64
	cpu      []cpuSample
}

// cpuSample is one poller sample of process CPU.
type cpuSample struct {
	At  int64         `json:"at_ns"` // unix nanoseconds
	CPU time.Duration `json:"cpu_ns"`
}

type probeResult struct {
	Stats    sysStats    `json:"stats"`
	DepthMax float64     `json:"depth_max"`
	CPU      []cpuSample `json:"cpu"`
}

func startChildProbe(s *system, origin int64) *childProbe {
	s.timer.origin.Store(origin)
	p := &childProbe{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(pollEvery)
		defer t.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-t.C:
			}
			depth := metricSeries(s.get("/metrics"), "gateway_shadow_queue_depth")[""]
			p.depthMax = max(p.depthMax, depth)
			p.cpu = append(p.cpu, cpuSample{At: time.Now().UnixNano(), CPU: cpuTime()})
		}
	}()
	return p
}

// stop ends the poller and returns what it saw.
func (p *childProbe) stop() (float64, []cpuSample) {
	close(p.quit)
	<-p.done
	return p.depthMax, p.cpu
}

// remote is the parent's handle on the child process.
type remote struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	ctl   *http.Client
	ready readyMsg
}

// startChild starts the system under test in a child process and waits
// for its ready line.
func startChild(cfg childConfig) (*remote, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	rm := &remote{cmd: cmd, stdin: stdin, ctl: &http.Client{Timeout: 60 * time.Second}}
	line, err := bufio.NewReader(stdout).ReadBytes('\n')
	if err == nil {
		err = json.Unmarshal(line, &rm.ready)
	}
	if err != nil {
		rm.stop()
		return nil, fmt.Errorf("system process did not start: %v", err)
	}
	go io.Copy(io.Discard, stdout)
	return rm, nil
}

// call performs one control request and decodes its JSON answer.
func (rm *remote) call(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, rm.ready.Ctl+path, body)
	if err != nil {
		return err
	}
	resp, err := rm.ctl.Do(req)
	if err != nil {
		return fmt.Errorf("control %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("control %s: status %d: %s", path, resp.StatusCode, msg)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// drainResult answers /drain.
type drainResult struct {
	OK        bool  `json:"ok"`
	Committed int64 `json:"committed"` // records the monitor has committed
}

// drain waits until the child's shadow worker has settled served
// batches, and reports how many records the monitor has committed.
func (rm *remote) drain(served int64) (bool, int64) {
	var res drainResult
	err := rm.call(http.MethodGet, "/drain?served="+strconv.FormatInt(served, 10), nil, &res)
	return err == nil && res.OK, res.Committed
}

func (rm *remote) usage() usage {
	var u usage
	rm.call(http.MethodGet, "/cpu", nil, &u)
	return u
}

func (rm *remote) slo() gateway.SLODoc {
	var doc gateway.SLODoc
	rm.call(http.MethodGet, "/slo", nil, &doc)
	return doc
}

// stop asks the child to quit, closes its stdin and waits for it.
func (rm *remote) stop() error {
	if rm.ready.Ctl != "" {
		rm.call(http.MethodPost, "/quit", nil, nil)
	}
	rm.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- rm.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		rm.cmd.Process.Kill()
		return <-done
	}
}
