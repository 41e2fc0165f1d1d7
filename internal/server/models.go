package server

import (
	"encoding/json"
	"net/http"

	"repro/internal/model"
)

// GET /v1/models: the EnergyModel registry — which model names the
// POST endpoints' "model" field accepts, which one is the default, and
// what each is. The selection surface is documented in docs/MODELS.md;
// per-machine accuracy comes from the scorecard (cmd/scorecard), not
// from this listing.

// modelSummary is one registered model in the GET /v1/models reply.
type modelSummary struct {
	// Name is the registry name the "model" request field accepts.
	Name string `json:"name"`
	// Default marks the model an empty/omitted "model" field selects.
	Default bool `json:"default"`
	// Description is the one-line registry description.
	Description string `json:"description"`
}

// handleModels implements GET /v1/models, sorted by name for stable
// output.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("requests_models_total").Inc()
	names := model.Names()
	out := make([]modelSummary, 0, len(names))
	for _, name := range names {
		out = append(out, modelSummary{
			Name:        name,
			Default:     name == model.DefaultName(),
			Description: model.Describe(name),
		})
	}
	body, err := json.MarshalIndent(map[string]any{"models": out}, "", "  ")
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}
