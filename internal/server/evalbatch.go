package server

import (
	"math"
	"net/http"
	"time"

	"repro/internal/model"
)

// POST /v1/evalbatch: the columnar counterpart of /v1/eval. One request
// carries whole (work, intensity) columns for a single (machine,
// precision); the response carries one /v1/eval result object per
// point, in request order, computed and rendered by the same column
// renderer as /v1/eval (render.go), so a batch of one returns exactly
// the /v1/eval result object. The whole batch is content-addressed by
// one canonical hash, so identical batches cache as one entry and
// concurrent identical batches coalesce into one evaluation like
// /v1/campaign.

// evalBatchRequest is the POST /v1/evalbatch body. Work is optional:
// omit it for the /v1/eval default of 1e9 flops per point, or provide
// exactly one entry per intensity (zero entries take the default).
type evalBatchRequest struct {
	Machine     string    `json:"machine"`
	Precision   string    `json:"precision"`
	Work        []float64 `json:"work,omitempty"`
	Intensities []float64 `json:"intensities"`
	// Model selects the EnergyModel for the whole batch (see GET
	// /v1/models); empty means the default analytic model.
	Model string `json:"model,omitempty"`
}

// checkEvalBatch validates a batch request, filling defaults in place —
// before hashing, so a request with omitted work keys identically to
// one spelling the 1e9 defaults out.
func (s *Server) checkEvalBatch(q *evalBatchRequest) error {
	if _, ok := catalog()[q.Machine]; !ok {
		return badRequest("unknown machine %q", q.Machine)
	}
	if _, err := parsePrecision(q.Precision); err != nil {
		return err
	}
	if !model.Known(q.Model) {
		return badRequest("unknown model %q (see GET /v1/models)", q.Model)
	}
	n := len(q.Intensities)
	if n == 0 {
		return badRequest("evalbatch: need at least one intensity")
	}
	if n > s.cfg.MaxBatchPoints {
		return badRequest("evalbatch: %d points exceed this server's limit of %d", n, s.cfg.MaxBatchPoints)
	}
	switch len(q.Work) {
	case 0:
		q.Work = make([]float64, n)
	case n:
	default:
		return badRequest("evalbatch: work has %d entries but intensities has %d (one per point, or omit for the default)",
			len(q.Work), n)
	}
	for i := range q.Work {
		if q.Work[i] == 0 {
			q.Work[i] = 1e9
		}
	}
	for i, col := range [2][]float64{q.Work, q.Intensities} {
		name := [2]string{"work", "intensities"}[i]
		for j, v := range col {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return badRequest("%s[%d] must be finite", name, j)
			}
			if v <= 0 {
				return badRequest("%s[%d] must be positive", name, j)
			}
		}
	}
	return nil
}

// handleEvalBatch implements POST /v1/evalbatch: cache lookup by one
// canonical batch hash, then singleflight evaluation — a batch can be
// thousands of points, so unlike /v1/eval concurrent identical batches
// coalesce into one computation like campaigns do.
func (s *Server) handleEvalBatch(w http.ResponseWriter, r *http.Request) {
	s.mRequestsEvalbatch.Inc()
	start := time.Now()
	defer func() { s.mLatEvalbatch.Observe(time.Since(start)) }()
	_, sp := s.tracer.StartRoot(r.Context(), "http.evalbatch")
	defer sp.End()

	var q evalBatchRequest
	sc := batchScratchPool.Get().(*batchScratch)
	// The request's float columns alias sc until the handler returns —
	// the flight leader runs its evaluation synchronously inside do(),
	// so nothing retains them past this defer.
	defer batchScratchPool.Put(sc)
	bp, err := readBody(r, s.cfg.MaxBodyBytes)
	if err == nil {
		err = decodeEvalBatchRequest(*bp, &q, sc)
		releaseBody(bp)
	}
	if err != nil {
		sp.Tag("error", "bad_body")
		s.writeError(w, badRequest("bad request body: %v", err))
		return
	}
	if err := s.checkEvalBatch(&q); err != nil {
		sp.Tag("error", "invalid")
		s.writeError(w, err)
		return
	}
	key := hashEvalBatch(q)
	if body, ok := s.cache.Get(key); ok {
		s.mCacheHits.Inc()
		sp.Tag("cache", "hit")
		writeCached(w, key, "hit", body)
		return
	}
	s.mCacheMisses.Inc()

	body, leader, err := s.flights.do(r.Context(), key, func() ([]byte, error) {
		s.mEvalbatchComputes.Inc()
		data, err := s.batchEval(q)
		if err != nil {
			return nil, err
		}
		s.cache.Put(key, data)
		return data, nil
	})
	if err != nil {
		sp.Tag("error", "eval")
		s.writeError(w, err)
		return
	}
	source := "miss"
	if !leader {
		source = "coalesced"
		s.mCoalesced.Inc()
	}
	sp.Tag("cache", source)
	writeCached(w, key, source, body)
}
