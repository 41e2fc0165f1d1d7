package exp

import (
	"encoding/json"
	"io"
)

// jsonReport is the machine-readable form of a Report (Text omitted:
// the artifact is for dashboards and regression tracking, not humans).
type jsonReport struct {
	// ID and Title identify the experiment.
	ID    string `json:"id"`
	Title string `json:"title"`
	// Comparisons are the paper-vs-reproduced rows.
	Comparisons []jsonComparison `json:"comparisons"`
	// Deviations counts failed tolerance checks.
	Deviations int `json:"deviations"`
}

// jsonComparison mirrors Comparison with an explicit ok field.
type jsonComparison struct {
	// Name describes the quantity.
	Name string `json:"name"`
	// Paper and Measured are the compared values.
	Paper    float64 `json:"paper"`
	Measured float64 `json:"measured"`
	// Tol is the relative tolerance (0 = informational).
	Tol float64 `json:"tol,omitempty"`
	// Ok reports whether the check passed (informational rows are ok).
	Ok bool `json:"ok"`
	// Note carries caveats.
	Note string `json:"note,omitempty"`
}

// WriteJSON emits the reports as a JSON array for dashboards and
// regression tracking.
func WriteJSON(w io.Writer, reports []*Report) error {
	out := make([]jsonReport, 0, len(reports))
	for _, r := range reports {
		jr := jsonReport{ID: r.ID, Title: r.Title, Deviations: len(r.Failures())}
		for _, c := range r.Comparisons {
			jr.Comparisons = append(jr.Comparisons, jsonComparison{
				Name: c.Name, Paper: c.Paper, Measured: c.Measured,
				Tol: c.Tol, Ok: c.Ok(), Note: c.Note,
			})
		}
		out = append(out, jr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
