package core

// Worker-pool construction of the corruption meta-dataset (lines 3-12 of
// Algorithm 1) and of the validator's synthetic training batches. The
// serial loops these replace shared one *rand.Rand across all batches,
// which made the draws of batch k depend on every batch before it — and
// made any parallel execution either racy or nondeterministic.
//
// The determinism contract: the (generator, repetition) grid is split
// into independent jobs, and every job derives its own rand.Rand from
// (cfg.Seed, stream tag, job index) via a splitmix64 hash. Job j's draws
// therefore never depend on how many workers run, how the scheduler
// interleaves them, or what any other job drew. Results are written into
// pre-sized slices at the job's own index, so the assembled meta-dataset
// is bit-identical for every Workers value, including Workers=1 (which
// runs the jobs inline, in index order, with no goroutines).

import (
	"math/rand"
	"runtime"
	"sync"
	"time"

	"blackboxval/internal/data"
	"blackboxval/internal/errorgen"
)

// RNG stream tags. Each training phase draws from its own stream so that
// resizing one phase (e.g. more repetitions) never shifts the randomness
// of another.
const (
	streamPredictorMeta int64 = iota + 1
	streamPredictorGrid
	streamPredictorCalib
	streamValidatorSetup
	streamValidatorBatch
)

// splitmix64 is the finalizer of the SplitMix64 generator (Steele et al.,
// "Fast Splittable Pseudorandom Number Generators", OOPSLA 2014). It
// bijectively scrambles its input, so distinct (seed, stream, job)
// triples map to well-separated seeds even when user seeds are small
// consecutive integers.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// jobSeed derives the RNG seed for one (seed, stream, job) triple.
func jobSeed(seed, stream int64, job int) int64 {
	h := splitmix64(uint64(seed))
	h = splitmix64(h ^ splitmix64(uint64(stream)))
	h = splitmix64(h ^ splitmix64(uint64(job)))
	return int64(h)
}

// jobRNG returns the private random source of one job. Two calls with the
// same triple return generators that produce identical sequences; calls
// with different triples are statistically independent.
func jobRNG(seed, stream int64, job int) *rand.Rand {
	return rand.New(rand.NewSource(jobSeed(seed, stream, job)))
}

// resolveWorkers maps the Workers config knob to a concrete pool size:
// zero (the zero value) means "use every core".
func resolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.NumCPU()
	}
	return workers
}

// runJobs executes fn(0), ..., fn(n-1) across a pool of `workers`
// goroutines. fn must be safe to call concurrently and must only write
// into its own job's slots; under that contract the overall result is
// identical for every worker count. workers <= 1 runs inline in index
// order without spawning goroutines, preserving strictly serial
// execution for debugging and for single-core deployments.
func runJobs(workers, n int, fn func(job int)) {
	if n <= 0 {
		return
	}
	workers = resolveWorkers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for j := 0; j < n; j++ {
			fn(j)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				fn(j)
			}
		}()
	}
	for j := 0; j < n; j++ {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
}

// metaExample is one row of the corruption meta-dataset M: the featurized
// model outputs on a synthetic serving batch, the true score on it, and
// the batch size (reported as the rows-scored telemetry).
type metaExample struct {
	feats []float64
	score float64
	size  int
}

// buildMetaDataset runs lines 3-12 of Algorithm 1: corrupt the held-out
// test set Generators x Repetitions times (plus CleanRepetitions
// uncorrupted batches), push every batch through the black box, and
// record (output percentiles, true score) pairs. Jobs run on
// cfg.Workers goroutines; job j covers generator j/Repetitions,
// repetition j%Repetitions, with clean batches at the tail of the index
// space. The returned slices are ordered by job index; rows is the total
// number of serving-batch rows scored, for throughput reporting.
func buildMetaDataset(model data.Model, test *data.Dataset, cfg PredictorConfig) (features [][]float64, scores []float64, rows int) {
	corrupted := len(cfg.Generators) * cfg.Repetitions
	n := corrupted + cfg.CleanRepetitions
	examples := make([]metaExample, n)
	runJobs(cfg.Workers, n, func(j int) {
		rng := jobRNG(cfg.Seed+10, streamPredictorMeta, j)
		var ds *data.Dataset
		if j < corrupted {
			gen := cfg.Generators[j/cfg.Repetitions]
			// Squaring the uniform draw skews the magnitude curriculum
			// toward small corruptions: the regression needs dense support
			// near the clean regime to resolve small score drops, while
			// heavy corruption saturates the model outputs anyway.
			magnitude := rng.Float64()
			magnitude *= magnitude
			ds = gen.Corrupt(SubsampleBatch(test, rng), magnitude, rng)
		} else {
			ds = SubsampleBatch(test, rng)
		}
		start := time.Now()
		proba := model.PredictProba(ds)
		feats := PredictionStatistics(proba, cfg.PercentileStep)
		featurizeDuration.Observe(time.Since(start).Seconds())
		metaExamples.Inc()
		rowsScored.Add(float64(ds.Len()))
		examples[j] = metaExample{
			feats: feats,
			score: cfg.Score(proba, ds.Labels),
			size:  ds.Len(),
		}
	})
	features = make([][]float64, n)
	scores = make([]float64, n)
	for j, ex := range examples {
		features[j] = ex.feats
		scores[j] = ex.score
		rows += ex.size
	}
	return features, scores, rows
}

// validatorBatch is one synthetic serving batch of validator training:
// the assembled feature vector, the true score, and the batch size
// (needed for the borderline-noise filter).
type validatorBatch struct {
	feats []float64
	score float64
	size  int
}

// validatorBatchSource computes the validator's synthetic training
// batches in parallel waves. Batch b is fully determined by
// (cfg.Seed, b): a job-local RNG subsamples the batch half, corrupts
// three out of four batches with the error mixture, and featurizes the
// model outputs. The adaptive label-filtering loop in TrainValidator then
// consumes batches strictly in index order, so its decisions — and the
// fitted classifier — are identical for every worker count.
type validatorBatchSource struct {
	v         *Validator
	mixture   errorgen.Mixture
	batchPart *data.Dataset
	wave      int // batches computed per wave
	results   []validatorBatch
}

// get returns batch b, computing further waves on demand.
func (s *validatorBatchSource) get(b int) validatorBatch {
	for b >= len(s.results) {
		lo := len(s.results)
		hi := lo + s.wave
		s.results = append(s.results, make([]validatorBatch, hi-lo)...)
		cfg := s.v.cfg
		runJobs(cfg.Workers, hi-lo, func(j int) {
			idx := lo + j
			rng := jobRNG(cfg.Seed+20, streamValidatorBatch, idx)
			batch := SubsampleBatch(s.batchPart, rng)
			if idx%4 != 0 {
				// three quarters corrupted, one quarter clean: anchors both
				// regimes of the decision
				batch = s.mixture.Corrupt(batch, rng.Float64(), rng)
			}
			rowsScored.Add(float64(batch.Len()))
			proba := s.v.model.PredictProba(batch)
			s.results[idx] = validatorBatch{
				feats: s.v.features(NewBatchView(proba)),
				score: cfg.Score(proba, batch.Labels),
				size:  batch.Len(),
			}
		})
	}
	return s.results[b]
}
