package server

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
)

// The oracle: evalResponse and evalBatchResponse filled point by point
// through the scalar model methods, exactly as the handlers computed
// them before the column renderer. json.MarshalIndent of these structs
// is the executable specification every rendered body is checked
// against.

// evalResponse is the POST /v1/eval reply: the model's time, energy,
// and power answers plus the §VI composite metrics.
type evalResponse struct {
	Machine        string  `json:"machine"`
	Precision      string  `json:"precision"`
	Model          string  `json:"model,omitempty"`
	Work           float64 `json:"work"`
	Intensity      float64 `json:"intensity"`
	Time           float64 `json:"time_seconds"`
	Energy         float64 `json:"energy_joules"`
	AvgPower       float64 `json:"avg_power_watts"`
	CappedTime     float64 `json:"capped_time_seconds"`
	CappedEnergy   float64 `json:"capped_energy_joules"`
	CappedPower    float64 `json:"capped_power_watts"`
	TimeBound      string  `json:"time_bound"`
	EnergyBound    string  `json:"energy_bound"`
	BalanceTime    float64 `json:"balance_time"`
	BalanceEnergy  float64 `json:"balance_energy"`
	HalfEfficiency float64 `json:"half_efficiency_intensity"`
	RooflineTime   float64 `json:"roofline_time"`
	ArchlineEnergy float64 `json:"archline_energy"`
	PowerLine      float64 `json:"power_line_watts"`
	RaceToHalt     bool    `json:"race_to_halt_effective"`
	EDP            float64 `json:"edp_joule_seconds"`
	FlopsPerJoule  float64 `json:"flops_per_joule"`
	FlopsPerSecond float64 `json:"flops_per_second"`
	GreenIndex     float64 `json:"green_index"`
	SpeedIndex     float64 `json:"speed_index"`
}

// evalBatchResponse is the POST /v1/evalbatch reply: one /v1/eval
// result object per requested point, in request order.
type evalBatchResponse struct {
	Machine   string         `json:"machine"`
	Precision string         `json:"precision"`
	Count     int            `json:"count"`
	Results   []evalResponse `json:"results"`
}

// oracleEval returns the /v1/eval reply for a validated request. The
// cost fields come from the requested EnergyModel's scalar methods; the
// machine-geometry fields are the analytic closed forms.
func oracleEval(q evalRequest) (evalResponse, error) {
	prec, err := parsePrecision(q.Precision)
	if err != nil {
		return evalResponse{}, err
	}
	p := core.FromMachine(catalog()[q.Machine], prec)
	em, err := model.For(q.Model, q.Machine, prec)
	if err != nil {
		return evalResponse{}, err
	}
	k := core.KernelAt(q.Work, q.Intensity)
	score, err := metrics.EvaluateModel(em, p, k)
	if err != nil {
		return evalResponse{}, err
	}
	return evalResponse{
		Machine:        q.Machine,
		Precision:      prec.String(),
		Model:          q.Model,
		Work:           q.Work,
		Intensity:      q.Intensity,
		Time:           score.Time,
		Energy:         score.Energy,
		AvgPower:       em.Power(k),
		CappedTime:     em.CappedTime(k),
		CappedEnergy:   em.CappedEnergy(k),
		CappedPower:    em.CappedPower(k),
		TimeBound:      p.TimeBound(k).String(),
		EnergyBound:    p.EnergyBound(k).String(),
		BalanceTime:    p.BalanceTime(),
		BalanceEnergy:  p.BalanceEnergy(),
		HalfEfficiency: p.HalfEfficiencyIntensity(),
		RooflineTime:   p.RooflineTime(q.Intensity),
		ArchlineEnergy: p.ArchlineEnergy(q.Intensity),
		PowerLine:      p.PowerLine(q.Intensity),
		RaceToHalt:     p.RaceToHaltEffective(),
		EDP:            score.EDP,
		FlopsPerJoule:  score.FlopsPerJoule,
		FlopsPerSecond: score.FlopsPerSecond,
		GreenIndex:     score.GreenIndex,
		SpeedIndex:     score.SpeedIndex,
	}, nil
}

// oracleEvalBatch returns the /v1/evalbatch reply for a validated
// request: one oracleEval row per point.
func oracleEvalBatch(q evalBatchRequest) (evalBatchResponse, error) {
	prec, err := parsePrecision(q.Precision)
	if err != nil {
		return evalBatchResponse{}, err
	}
	rows := make([]evalResponse, len(q.Intensities))
	for i := range rows {
		r, err := oracleEval(evalRequest{Machine: q.Machine, Precision: q.Precision,
			Work: q.Work[i], Intensity: q.Intensities[i], Model: q.Model})
		if err != nil {
			return evalBatchResponse{}, err
		}
		rows[i] = r
	}
	return evalBatchResponse{Machine: q.Machine, Precision: prec.String(), Count: len(rows), Results: rows}, nil
}

// batchColdRequests returns n validated requests shaped like the
// benchmark's batch_cold workload: 32 distinct points each on gtx580 at
// double precision, work uniform in [0.5, 1.5] Gflop and intensity
// log-uniform in [0.5, 8] flops/byte.
func batchColdRequests(n int) []evalBatchRequest {
	r := rand.New(rand.NewSource(2026))
	qs := make([]evalBatchRequest, n)
	for i := range qs {
		q := evalBatchRequest{Machine: "gtx580", Precision: "double",
			Work: make([]float64, 32), Intensities: make([]float64, 32)}
		for j := range q.Work {
			q.Work[j] = 1e9 * (0.5 + r.Float64())
			q.Intensities[j] = math.Exp2(-1 + 4*r.Float64())
		}
		qs[i] = q
	}
	return qs
}

// batchRequestBody renders q as a /v1/evalbatch request body.
func batchRequestBody(q evalBatchRequest) string {
	return fmt.Sprintf(`{"machine":%q,"precision":%q,"work":%s,"intensities":%s}`,
		q.Machine, q.Precision, fmtFloats(q.Work), fmtFloats(q.Intensities))
}
