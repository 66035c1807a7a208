package main

// Workloads and the seeded input generator. A workload names a dataset,
// a black box, a batch shape, a phase plan and an open-loop arrival
// schedule; the seed picks the serving rows, the corruptions and the
// arrival times. The program under test sees only the generated
// request bodies.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"blackboxval/internal/cloud"
	"blackboxval/internal/data"
	"blackboxval/internal/datagen"
	"blackboxval/internal/errorgen"
)

// schedule is an open-loop arrival process.
type schedule struct {
	// Kind is "onoff" (bursts at OnRate for OnFrac of every Period, then
	// OffRate) or "poisson" (OnRate throughout).
	Kind    string
	OnRate  float64 // arrivals per second (during bursts for onoff)
	OffRate float64 // arrivals per second between bursts (onoff only)
	Period  time.Duration
	OnFrac  float64
}

// meanRate is the long-run arrival rate of the schedule.
func (s schedule) meanRate() float64 {
	if s.Kind == "onoff" {
		return s.OnFrac*s.OnRate + (1-s.OnFrac)*s.OffRate
	}
	return s.OnRate
}

func (s schedule) String() string {
	if s.Kind == "onoff" {
		return fmt.Sprintf("onoff(on=%.0f/s for %.0f%% of %v, off=%.0f/s, mean=%.1f/s)",
			s.OnRate, s.OnFrac*100, s.Period, s.OffRate, s.meanRate())
	}
	return fmt.Sprintf("poisson(%.1f/s)", s.OnRate)
}

// trainPlan sizes the set-up's training of the black box, h and the
// validator.
type trainPlan struct {
	DataRows      int   // rows generated for the train/test split
	Epochs        int   // CNN epochs (conv only)
	Reps          int   // corrupted batches per error type for h
	Forest        []int // forest sizes searched for h
	Folds         int
	ValBatches    int // validator training batches
	ValPredReps   int // repetitions of the validator's inner h
	ReferenceRows int // cap of the bundle's reference sample
}

// workload is one traffic mix run against the composed gateway.
type workload struct {
	Name    string
	Dataset string // "income" or "digits"
	Model   string // "lr" or "conv"
	Rows    int    // rows (images) per request batch
	Pool    int    // distinct request batches generated per seed
	// CorruptFrac is the share of pool batches corrupted by the
	// dataset's known error generators at seeded magnitudes.
	CorruptFrac float64
	// Conns is the number of loopback connections of the generator.
	Conns int
	// OpenFrac, ReadFrac and SatFrac split the measured seconds into the
	// open-loop write phase, the read phase (closed-loop readers on one
	// connection plus an open-loop write trickle on the other) and the
	// closed-loop saturation phase, run in that order.
	OpenFrac, ReadFrac, SatFrac float64
	Open                        schedule
	TrickleRate                 float64 // writes per second during the read phase
	RangeReads                  int     // series range queries per pass of 20 reads
	Prefill                     int     // windows written into the tsdb during set-up
	PrefillRows                 int     // model-output rows per pre-filled window
	SetupReps                   int     // set-ups per run; setup_s is their median
	Train                       trainPlan
}

// limit is the latency limit a request must meet to count towards
// sat_rps: the gateway's default SLO budget.
const limit = 250 * time.Millisecond

// threshold is the validator's tolerated relative accuracy drop.
const threshold = 0.05

// trainSeed fixes the training data and models, so every seed of a
// workload validates the same black box with the same h.
const trainSeed = 20200614

var workloads = []*workload{
	{
		Name:        "tabular-shadow",
		Dataset:     "income",
		Model:       "lr",
		Rows:        500,
		Pool:        384,
		CorruptFrac: 1.0 / 3,
		Conns:       2,
		OpenFrac:    0.45, ReadFrac: 0.3, SatFrac: 0.25,
		Open:        schedule{Kind: "onoff", OnRate: 120, OffRate: 40, Period: 500 * time.Millisecond, OnFrac: 0.2},
		TrickleRate: 10,
		RangeReads:  1,
		SetupReps:   3,
		Train: trainPlan{DataRows: 8000, Reps: 20, Forest: []int{30}, Folds: 3,
			ValBatches: 100, ValPredReps: 10, ReferenceRows: 2000},
	},
	{
		Name:        "image-conv",
		Dataset:     "digits",
		Model:       "conv",
		Rows:        16,
		Pool:        160,
		CorruptFrac: 1.0 / 3,
		Conns:       2,
		OpenFrac:    0.45, ReadFrac: 0.3, SatFrac: 0.25,
		Open:        schedule{Kind: "poisson", OnRate: 25},
		TrickleRate: 5,
		RangeReads:  1,
		SetupReps:   3,
		Train: trainPlan{DataRows: 640, Epochs: 2, Reps: 8, Forest: []int{30}, Folds: 3,
			ValBatches: 24, ValPredReps: 4, ReferenceRows: 2000},
	},
	{
		Name:        "history-read",
		Dataset:     "income",
		Model:       "lr",
		Rows:        500,
		Pool:        384,
		CorruptFrac: 1.0 / 3,
		Conns:       2,
		OpenFrac:    0, ReadFrac: 0.8, SatFrac: 0.2,
		TrickleRate: 8,
		RangeReads:  5,
		Prefill:     2000,
		PrefillRows: 100,
		SetupReps:   3,
		Train: trainPlan{DataRows: 8000, Reps: 20, Forest: []int{30}, Folds: 3,
			ValBatches: 100, ValPredReps: 10, ReferenceRows: 2000},
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(names, ", "))
}

// rngFor derives an independent random stream for one purpose of a
// seed, so adding draws to one stream never shifts another.
func rngFor(seed int64, stream uint64) *rand.Rand {
	z := uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return rand.New(rand.NewSource(int64(z ^ (z >> 31))))
}

// Random streams of a seed.
const (
	streamPool uint64 = iota + 1
	streamOpen
	streamTrickle
	streamReads
	streamSat
	streamPrefill
)

func generateDataset(name string, rows int, seed int64) (*data.Dataset, error) {
	switch name {
	case "income":
		return datagen.Income(rows, seed), nil
	case "digits":
		return datagen.Digits(rows, seed), nil
	}
	return nil, fmt.Errorf("unknown dataset %q", name)
}

func generatorsFor(dataset string) []errorgen.Generator {
	if dataset == "digits" {
		return errorgen.Image()
	}
	return errorgen.KnownTabular()
}

// poolBatch is one generated request batch.
type poolBatch struct {
	Body   []byte // /predict_proba request body
	Labels []int  // generator labels (never sent)
}

// generatePool draws the seed's request batches: rows sampled from the
// workload's fixed serving partition, and exactly round(Pool*CorruptFrac) of them,
// at seeded positions, corrupted by the dataset's known error
// generators in turn at seeded magnitudes.
func generatePool(w *workload, seed int64) ([]poolBatch, error) {
	_, _, serving, err := splitData(w)
	if err != nil {
		return nil, err
	}
	gens := generatorsFor(w.Dataset)
	rng := rngFor(seed, streamPool)
	corrupt := map[int]bool{}
	for _, i := range rng.Perm(w.Pool)[:int(math.Round(float64(w.Pool)*w.CorruptFrac))] {
		corrupt[i] = true
	}
	pool := make([]poolBatch, w.Pool)
	k := 0
	for i := range pool {
		batch := serving.Sample(w.Rows, rng)
		if corrupt[i] {
			g := gens[k%len(gens)]
			k++
			mag := 0.2 + 0.8*rng.Float64()
			batch = g.Corrupt(batch, mag, rng)
		}
		body, err := cloud.EncodeRequest(batch)
		if err != nil {
			return nil, fmt.Errorf("encoding pool batch %d: %w", i, err)
		}
		pool[i].Body = body
		pool[i].Labels = append([]int(nil), batch.Labels...)
	}
	return pool, nil
}

// arrival is one scheduled open-loop request.
type arrival struct {
	At    time.Duration // offset from the phase start
	Batch int
	ID    string
}

// arrivals draws the schedule's arrival times over [0, d) and a batch
// per arrival: the pool in seeded order, reshuffled every pass, so a
// phase serves every batch equally often. Request ids carry the phase
// prefix and the arrival index.
func arrivals(s schedule, d time.Duration, pool int, prefix string, rng *rand.Rand) []arrival {
	var out []arrival
	if s.OnRate <= 0 {
		return out
	}
	rate := func(t time.Duration) float64 {
		if s.Kind != "onoff" {
			return s.OnRate
		}
		if float64(t%s.Period) < s.OnFrac*float64(s.Period) {
			return s.OnRate
		}
		return s.OffRate
	}
	// Thinning (Lewis–Shedler) over the peak rate keeps the process
	// exact across on/off edges.
	peak := math.Max(s.OnRate, s.OffRate)
	t := time.Duration(0)
	for {
		t += time.Duration(rng.ExpFloat64() / peak * float64(time.Second))
		if t >= d {
			break
		}
		if rng.Float64() < rate(t)/peak {
			out = append(out, arrival{At: t, ID: fmt.Sprintf("%s-%06d", prefix, len(out))})
		}
	}
	var perm []int
	for i := range out {
		if i%pool == 0 {
			perm = rng.Perm(pool)
		}
		out[i].Batch = perm[i%pool]
	}
	return out
}

// readKind enumerates the reader mix.
const (
	readSeries   = "range_series"
	readWindows  = "range_windows"
	readFederate = "federate"
	readMetrics  = "metrics"
)

// readOp is one reader request.
type readOp struct {
	Kind     string
	Series   string
	From, To int64
	Step     int64
}

// path renders the request path of the read.
func (r readOp) path() string {
	switch r.Kind {
	case readSeries:
		return fmt.Sprintf("/monitor/timeline/range?series=%s&from=%d&to=%d&step=%d", r.Series, r.From, r.To, r.Step)
	case readWindows:
		return fmt.Sprintf("/monitor/timeline/range?from=%d&to=%d&step=%d", r.From, r.To, r.Step)
	case readFederate:
		return "/federate"
	}
	return "/metrics"
}

// compactK is the tsdb's default downsampling factor. Range queries are
// aligned to it so a compacted record never straddles a query edge and
// the covered spans must add up to exactly the windows asked for.
const compactK = 8

var readSeriesNames = []string{"estimate", "ks_max", "proba_class_0", "violation"}

// readMix draws reader requests in passes of 20: RangeReads series
// range queries, one full-window range query, 4 /metrics scrapes and
// /federate documents for the rest, in seeded order, so every run reads
// the same proportions.
type readMix struct {
	rng  *rand.Rand
	kind []string
	pass []int
}

func newReadMix(rangeReads int, rng *rand.Rand) *readMix {
	m := &readMix{rng: rng}
	for i := 0; i < 20; i++ {
		switch {
		case i < rangeReads:
			m.kind = append(m.kind, readSeries)
		case i == rangeReads:
			m.kind = append(m.kind, readWindows)
		case i >= 16:
			m.kind = append(m.kind, readMetrics)
		default:
			m.kind = append(m.kind, readFederate)
		}
	}
	return m
}

// next returns the next reader request. closed is the number of
// windows known to be persisted (indices [0, closed)); ranges look back
// from the newest persisted window, like a dashboard paging history,
// and fall back to a /metrics scrape while fewer than compactK exist.
func (m *readMix) next(closed int64) readOp {
	if len(m.pass) == 0 {
		m.pass = m.rng.Perm(len(m.kind))
	}
	kind := m.kind[m.pass[0]]
	m.pass = m.pass[1:]
	last := (closed / compactK) * compactK // exclusive aligned upper edge
	switch {
	case (kind == readSeries || kind == readWindows) && last < compactK:
		return readOp{Kind: readMetrics}
	case kind == readSeries:
		spans := []int64{16, 64, 256, 1024}
		span := min(spans[m.rng.Intn(len(spans))], last)
		back := int64(m.rng.Intn(int(last/compactK-span/compactK)+1)) * compactK
		steps := []int64{1, 8, 32}
		return readOp{Kind: readSeries, Series: readSeriesNames[m.rng.Intn(len(readSeriesNames))],
			From: last - back - span, To: last - back - 1, Step: steps[m.rng.Intn(len(steps))]}
	case kind == readWindows:
		span := int64(16)
		back := int64(m.rng.Intn(int(min(last/compactK-span/compactK, 32))+1)) * compactK
		return readOp{Kind: readWindows, From: last - back - span, To: last - back - 1, Step: 8}
	}
	return readOp{Kind: kind}
}

// sortedCopy returns xs sorted ascending.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
