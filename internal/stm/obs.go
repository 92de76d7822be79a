package stm

import "repro/internal/obs"

// RegisterObs registers this domain's live-scrapeable counters with an
// observability registry. labels is the rendered Prometheus label pairs for
// this domain's series (e.g. `shard="3"`), empty for an unlabeled
// single-domain registration. Collection runs entirely on the scrape path
// (summing the threads' atomic mirrors); the transactional hot path is
// untouched.
func (s *STM) RegisterObs(r *obs.Registry, labels string) {
	r.RegisterCollector(func(emit func(obs.Sample)) {
		ls := s.LiveStats()
		counter := func(name, help string, v uint64) {
			emit(obs.Sample{Name: name, Label: labels, Kind: obs.KindCounter, Help: help, Value: float64(v)})
		}
		counter("stm_commits_total", "Committed transactions.", ls.Commits)
		counter("stm_aborts_total", "Aborted transaction attempts.", ls.Aborts)
		counter("stm_retries_total", "Abort-to-retry transitions of the retry loop.", ls.Retries)
		counter("stm_structural_commits_total", "Commits by structural (maintenance) threads.", ls.StructuralCommits)
		counter("stm_structural_aborts_total", "Aborts by structural (maintenance) threads.", ls.StructuralAborts)
		for c := AbortCause(0); c < NumAbortCauses; c++ {
			lbl := `cause="` + c.String() + `"`
			if labels != "" {
				lbl = labels + "," + lbl
			}
			emit(obs.Sample{Name: "stm_abort_cause_total", Label: lbl, Kind: obs.KindCounter,
				Help: "Aborted attempts by cause; sums to stm_aborts_total.", Value: float64(ls.AbortCauses[c])})
		}
	})
}
