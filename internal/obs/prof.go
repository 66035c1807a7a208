package obs

// prof.go: alert-triggered profile capture. A Profiler takes bounded
// CPU and heap pprof snapshots on demand — typically from an incident
// capture fired by a burn-rate alert — so the bundle records not just
// THAT serving was slow but WHAT the process was doing while it was.
// CPU capture costs its configured duration of wall time (the sampler
// runs concurrently; the caller blocks, serving does not), so captures
// are rate-limited by a cooldown and refused while another capture or
// an external pprof session holds the CPU profiler.

import (
	"bytes"
	"flag"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"
)

// Profiles is one captured profile pair. The profile bytes are gzipped
// pprof protos, exactly what `go tool pprof` reads; inside JSON they
// marshal as base64.
type Profiles struct {
	CapturedAt time.Time `json:"captured_at"`
	// CPUSeconds is the CPU profile's sampling duration.
	CPUSeconds float64 `json:"cpu_seconds"`
	CPU        []byte  `json:"cpu,omitempty"`
	Heap       []byte  `json:"heap,omitempty"`
}

// ProfilerConfig tunes a Profiler. The zero value is usable.
type ProfilerConfig struct {
	// CPUDuration is how long the CPU profiler samples per capture
	// (default 250ms). The capturing goroutine blocks for this long.
	CPUDuration time.Duration
	// Cooldown is the minimum spacing between captures (default 30s), so
	// a flapping alert cannot keep the CPU profiler permanently on.
	Cooldown time.Duration
}

// RegisterFlags installs -profile-cpu and -profile-cooldown on fs.
func (c *ProfilerConfig) RegisterFlags(fs *flag.FlagSet) {
	fs.DurationVar(&c.CPUDuration, "profile-cpu", 0,
		"CPU profile duration captured into alert-triggered incident bundles (0 = default 250ms)")
	fs.DurationVar(&c.Cooldown, "profile-cooldown", 0,
		"minimum gap between profile captures (0 = default 30s)")
}

// Profiler captures bounded CPU+heap profile pairs with a cooldown.
// Safe for concurrent use; concurrent captures are refused, not queued.
type Profiler struct {
	cpuDuration time.Duration
	cooldown    time.Duration

	mu   sync.Mutex
	busy bool
	last time.Time
	now  func() time.Time // test seam
}

// NewProfiler returns a ready Profiler.
func NewProfiler(cfg ProfilerConfig) *Profiler {
	if cfg.CPUDuration <= 0 {
		cfg.CPUDuration = 250 * time.Millisecond
	}
	if cfg.Cooldown == 0 {
		cfg.Cooldown = 30 * time.Second
	}
	return &Profiler{cpuDuration: cfg.CPUDuration, cooldown: cfg.Cooldown, now: time.Now}
}

// Capture takes one CPU+heap profile pair. It returns an error when a
// capture is already running, the cooldown has not elapsed, or the CPU
// profiler is held by someone else (e.g. a live /debug/pprof/profile
// request) — in which case it degrades to a heap-only capture rather
// than failing outright.
func (p *Profiler) Capture() (*Profiles, error) {
	p.mu.Lock()
	now := p.now()
	if p.busy {
		p.mu.Unlock()
		return nil, fmt.Errorf("obs: profile capture already in progress")
	}
	if !p.last.IsZero() && now.Sub(p.last) < p.cooldown {
		p.mu.Unlock()
		return nil, fmt.Errorf("obs: profile capture in cooldown (%s remaining)",
			(p.cooldown - now.Sub(p.last)).Round(time.Millisecond))
	}
	p.busy = true
	p.last = now
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.busy = false
		p.mu.Unlock()
	}()

	out := &Profiles{CapturedAt: now.UTC()}
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err == nil {
		time.Sleep(p.cpuDuration)
		pprof.StopCPUProfile()
		out.CPU = cpu.Bytes()
		out.CPUSeconds = p.cpuDuration.Seconds()
	}
	var heap bytes.Buffer
	if prof := pprof.Lookup("heap"); prof != nil {
		if err := prof.WriteTo(&heap, 0); err == nil {
			out.Heap = heap.Bytes()
		}
	}
	if out.CPU == nil && out.Heap == nil {
		return nil, fmt.Errorf("obs: profile capture produced nothing (CPU profiler busy, heap lookup failed)")
	}
	return out, nil
}
