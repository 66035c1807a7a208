package labels

// sampler.go is the active-sampling layer: given a labeling budget, it
// ranks the unlabeled served rows the store is still retaining and
// returns the ones most worth paying an annotator for. The default
// policy is Thompson sampling over the per-stratum accuracy posteriors
// (strata = predicted class × alarm state): each pick draws θ̃ from
// every stratum's Beta posterior and spends the label on the stratum
// whose sampled Bernoulli variance θ̃(1−θ̃), discounted by the evidence
// it already has, is largest — so labels flow to strata that are both
// uncertain and plausibly inaccurate, which is what narrows the
// credible intervals fastest (sampler_test.go pins that it needs fewer
// labels than the uniform baseline). PolicyUniform spends the budget uniformly
// at random over the same candidates.

import "blackboxval/internal/stats"

// Sampling policies accepted by Worklist and GET /labels/requests.
const (
	PolicyThompson = "ts"
	PolicyUniform  = "uniform"
)

// WorkItem is one row worth labeling: post its true label back as
// {"request_id": ..., "rows": [Row], "labels": [...]}.
type WorkItem struct {
	RequestID string `json:"request_id"`
	Row       int    `json:"row"`
	Class     int    `json:"class"`
	Alarming  bool   `json:"alarming"`
}

// candidate queues index unlabeled rows per stratum, newest served
// batch first (most relevant to the current serving regime), row
// ascending within a batch — a deterministic order.
type candidate struct {
	sb  *servedBatch
	row int
}

// Worklist returns up to budget unlabeled served rows under the given
// policy ("" = Thompson). The selection consumes draws from the
// store's seeded RNG, so the sequence of worklists is a pure function
// of (seed, ordered join stream, call sequence). Rows are not
// reserved: they leave the candidate pool only when their labels are
// ingested.
func (s *Store) Worklist(budget int, policy string) []WorkItem {
	if budget <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	queues := map[stratumKey][]candidate{}
	strata := map[stratumKey]*Posterior{}
	for i := len(s.served) - 1; i >= 0; i-- {
		sb := s.served[i]
		for row := 0; row < len(sb.pred); row++ {
			if sb.labeled[row] {
				continue
			}
			key := stratumKey{class: sb.pred[row], alarming: sb.alarming}
			queues[key] = append(queues[key], candidate{sb: sb, row: row})
			if strata[key] == nil {
				if p := s.strata[key]; p != nil {
					strata[key] = p
				} else {
					strata[key] = newPosterior(s.cfg.PriorA, s.cfg.PriorB)
				}
			}
		}
	}
	if len(queues) == 0 {
		return nil
	}

	var out []WorkItem
	take := func(key stratumKey, idx int) {
		q := queues[key]
		c := q[idx]
		queues[key] = append(q[:idx], q[idx+1:]...)
		if len(queues[key]) == 0 {
			delete(queues, key)
		}
		out = append(out, WorkItem{
			RequestID: c.sb.id, Row: c.row,
			Class: key.class, Alarming: key.alarming,
		})
	}

	for len(out) < budget && len(queues) > 0 {
		switch policy {
		case PolicyUniform:
			// Uniform baseline: one candidate uniformly at random across
			// all strata (index into the deterministic concatenation of
			// the sorted stratum queues).
			total := 0
			keys := sortedStrata(strataPresent(queues))
			for _, key := range keys {
				total += len(queues[key])
			}
			pick := s.rng.Intn(total)
			for _, key := range keys {
				if pick < len(queues[key]) {
					take(key, pick)
					break
				}
				pick -= len(queues[key])
			}
		default: // PolicyThompson
			var best stratumKey
			bestScore := -1.0
			for _, key := range sortedStrata(strataPresent(queues)) {
				p := strata[key]
				theta := stats.SampleBeta(s.rng, p.A, p.B)
				// Sampled Bernoulli variance shrunk by the evidence the
				// stratum already holds: the expected reduction in
				// posterior variance from one more label.
				score := theta * (1 - theta) / (p.A + p.B + 1)
				if score > bestScore {
					bestScore = score
					best = key
				}
			}
			take(best, 0)
			// The pick itself is unlabeled, but discount the stratum so a
			// single worklist call spreads a large budget instead of
			// spending it all on one arm with no feedback in between.
			p := strata[best]
			strata[best] = &Posterior{A: p.A + p.Mean(), B: p.B + 1 - p.Mean()}
		}
	}
	return out
}

func strataPresent(queues map[stratumKey][]candidate) map[stratumKey]*Posterior {
	m := make(map[stratumKey]*Posterior, len(queues))
	for k := range queues {
		m[k] = nil
	}
	return m
}
