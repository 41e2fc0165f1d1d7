package server

import (
	"repro/internal/campaign"
	"repro/internal/rescache"
)

// Request hashing. Because the engine is deterministic (fixed config →
// byte-identical output at any worker count, see internal/campaign),
// responses are content-addressable: a canonical 64-bit hash of the
// request doubles as the cache key and the coalescing key. The folding
// and the eval key live in internal/rescache, shared with the cluster
// simulator; the request shapes the simulator never sees are keyed
// here.

// hashCampaign returns the canonical key of a campaign request.
// Machine order matters: per-machine engines are seeded by index, so
// ["a","b"] and ["b","a"] are different computations.
func hashCampaign(c campaign.Config) uint64 {
	h := rescache.Domain("campaign")
	h = rescache.Fold(h, uint64(len(c.Machines)))
	for _, m := range c.Machines {
		h = rescache.FoldString(h, m)
	}
	h = rescache.FoldFloat(h, c.LoIntensity)
	h = rescache.FoldFloat(h, c.HiIntensity)
	h = rescache.Fold(h, uint64(c.Points))
	h = rescache.Fold(h, uint64(c.Reps))
	h = rescache.FoldFloat(h, c.VolumeBytes)
	h = rescache.FoldBool(h, c.UsePowerMon)
	h = rescache.Fold(h, uint64(c.Seed))
	h = foldModel(h, c.Model)
	return h
}

// foldModel mixes a model selector into the running hash — only when
// one is named. An empty selector folds nothing, so every default
// request keys exactly as it did before the model field existed (no
// invalidation of pre-model cache entries, no version bump), while
// an explicit selector — including an explicit "analytic", whose
// response body differs by its echoed model field — keys distinctly.
func foldModel(h uint64, name string) uint64 {
	if name == "" {
		return h
	}
	return rescache.FoldString(h, name)
}

// hashEval returns the canonical key of an eval request: the shared
// rescache.EvalKey plus the model selector.
func hashEval(q evalRequest) uint64 {
	return foldModel(rescache.EvalKey(q.Machine, q.Precision, q.Work, q.Intensity), q.Model)
}

// hashEvalBatch returns the canonical key of a batch eval request:
// one hash for the whole batch, folding every point in order after
// checkEvalBatch has filled the work defaults (so an omitted work
// column keys identically to an explicit all-default one).
func hashEvalBatch(q evalBatchRequest) uint64 {
	h := rescache.Domain("evalbatch")
	h = rescache.FoldString(h, q.Machine)
	h = rescache.FoldString(h, q.Precision)
	h = rescache.Fold(h, uint64(len(q.Intensities)))
	for i := range q.Intensities {
		h = rescache.FoldFloat(h, q.Work[i])
		h = rescache.FoldFloat(h, q.Intensities[i])
	}
	h = foldModel(h, q.Model)
	return h
}
