package server

import (
	"fmt"
	"math"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/model"
)

// The /v1/eval and /v1/evalbatch response renderer. Both endpoints
// evaluate through the columnar model path and write each point
// straight from the columns into one pooled buffer; /v1/eval is a
// batch of one rendered at top-level indentation. The bytes are those
// json.MarshalIndent(v, "", "  ") produces for the evalResponse and
// evalBatchResponse test oracles, plus a trailing newline — the golden
// digests (testdata/eval_bodies_golden.json), TestEncodersMatchStdlib
// and FuzzResponseEncoding pin that. Three pieces make it cheap:
//
//   - a renderEntry per (machine, precision, model), built once per
//     server, holds core.Params, the EnergyModel and pre-rendered
//     bytes for everything a response does not vary per point: field
//     names, indentation at both depths, the machine, precision and
//     model strings, and the balance points and race-to-halt flag;
//   - a floatMemo, a fixed-size table from float64 bits to text already
//     written in the response, so a value that recurs (the capped
//     fields equal their uncapped twins below the power cap) is
//     formatted once and copied after;
//   - every column, the memo and the output buffer live in the pooled
//     batchScratch, so a miss allocates little beyond its cached body.

// Float columns of a result row, in wire order.
const (
	colWork = iota
	colIntensity
	colTime
	colEnergy
	colPower
	colCappedTime
	colCappedEnergy
	colCappedPower
	colRoofline
	colArchline
	colPowerLine
	colEDP
	colFlopsPerJoule
	colFlopsPerSecond
	colGreenIndex
	colSpeedIndex
	numFloatCols

	// The two bound columns follow the float columns in slot numbering.
	colTimeBound   = numFloatCols
	colEnergyBound = numFloatCols + 1
)

// evalColumns is one response's per-point values: float column k holds
// the field colK of every point; the bound columns hold the time and
// energy classifications.
type evalColumns struct {
	f           [numFloatCols][]float64
	timeBound   []core.BoundState
	energyBound []core.BoundState
}

// boundJSON is the quoted wire text of each bound state.
var boundJSON = [2]string{
	core.MemoryBound:  string(appendJSONString(nil, core.MemoryBound.String())),
	core.ComputeBound: string(appendJSONString(nil, core.ComputeBound.String())),
}

// rowSlot is one stretch of a result row: the constant bytes up to a
// per-point value, then the value from column col.
type rowSlot struct {
	lit []byte
	col int
	// err is the first non-finite constant inside lit; rendering fails
	// with it there, where encoding/json would.
	err error
}

// rowTemplate is a result row pre-rendered at one indentation depth.
type rowTemplate struct {
	slots []rowSlot
	tail  []byte // closing newline, indent and brace
}

// renderTemplate is the constant part of every response for one
// (machine, precision, model): the batch envelope's head and a result
// row at both depths.
type renderTemplate struct {
	batchHead []byte // "{", machine, precision, then `"count": `
	// rows[0] is the /v1/eval body at top level; rows[1] is a batch
	// result object inside "results".
	rows [2]rowTemplate
}

// newRenderTemplate pre-renders every constant byte of a response with
// the jsonEnc primitives, cutting a slot wherever a per-point value
// goes. The member order is the wire schema (docs/SERVER.md);
// modelName is echoed only when non-empty, as the oracle's omitempty
// tag does.
func newRenderTemplate(machineKey, precision, modelName string, balanceTime, balanceEnergy, halfEfficiency float64, raceToHalt bool) renderTemplate {
	var t renderTemplate
	head := jsonEnc{}
	head.open('{')
	head.field("machine")
	head.str(machineKey)
	head.field("precision")
	head.str(precision)
	head.field("count")
	t.batchHead = head.buf
	for d := range t.rows {
		e := jsonEnc{depth: 2 * d} // a batch row sits inside "results": [
		var slots []rowSlot
		value := func(name string, col int) {
			e.field(name)
			slots = append(slots, rowSlot{lit: e.buf, col: col, err: e.err})
			e.buf, e.err = nil, nil
		}
		e.open('{')
		e.field("machine")
		e.str(machineKey)
		e.field("precision")
		e.str(precision)
		if modelName != "" {
			e.field("model")
			e.str(modelName)
		}
		value("work", colWork)
		value("intensity", colIntensity)
		value("time_seconds", colTime)
		value("energy_joules", colEnergy)
		value("avg_power_watts", colPower)
		value("capped_time_seconds", colCappedTime)
		value("capped_energy_joules", colCappedEnergy)
		value("capped_power_watts", colCappedPower)
		value("time_bound", colTimeBound)
		value("energy_bound", colEnergyBound)
		e.field("balance_time")
		e.num(balanceTime)
		e.field("balance_energy")
		e.num(balanceEnergy)
		e.field("half_efficiency_intensity")
		e.num(halfEfficiency)
		value("roofline_time", colRoofline)
		value("archline_energy", colArchline)
		value("power_line_watts", colPowerLine)
		e.field("race_to_halt_effective")
		e.boolean(raceToHalt)
		value("edp_joule_seconds", colEDP)
		value("flops_per_joule", colFlopsPerJoule)
		value("flops_per_second", colFlopsPerSecond)
		value("green_index", colGreenIndex)
		value("speed_index", colSpeedIndex)
		e.close('}')
		t.rows[d] = rowTemplate{slots: slots, tail: e.buf}
	}
	return t
}

// appendRow renders point i of c.
func (t *rowTemplate) appendRow(b []byte, c *evalColumns, i int, m *floatMemo) ([]byte, error) {
	for k := range t.slots {
		s := &t.slots[k]
		b = append(b, s.lit...)
		if s.err != nil {
			return b, s.err
		}
		switch s.col {
		case colTimeBound:
			b = append(b, boundJSON[c.timeBound[i]]...)
		case colEnergyBound:
			b = append(b, boundJSON[c.energyBound[i]]...)
		default:
			var err error
			if b, err = m.appendFloat(b, c.f[s.col][i]); err != nil {
				return b, err
			}
		}
	}
	return append(b, t.tail...), nil
}

// appendBody renders the n points of c as a whole response body: the
// /v1/evalbatch envelope when batch is set, else the lone /v1/eval
// object. The first non-finite value is an error, as in encoding/json.
func (t *renderTemplate) appendBody(b []byte, c *evalColumns, n int, batch bool, m *floatMemo) ([]byte, error) {
	m.reset()
	var err error
	if !batch {
		b, err = t.rows[0].appendRow(b, c, 0, m)
		return append(b, '\n'), err
	}
	b = append(b, t.batchHead...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, ",\n  \"results\": ["...)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    "...)
		if b, err = t.rows[1].appendRow(b, c, i, m); err != nil {
			return b, err
		}
	}
	if n > 0 {
		b = append(b, "\n  "...)
	}
	return append(b, "]\n}\n"...), nil
}

// memoBits sizes the floatMemo at 2^memoBits slots: enough for the
// ~300 distinct floats of a 32-point batch, small enough to stay in L1.
const memoBits = 9

// floatMemo maps float64 bits to the text already written for them in
// the response being rendered. It is direct-mapped: a colliding value
// replaces the slot, so a response with more distinct floats than
// slots still renders every value, just formats some twice. Slots are
// stamped with the response's generation, which reset bumps, so no
// entry of one response is visible to the next.
type floatMemo struct {
	gen   uint16
	slots [1 << memoBits]memoSlot
}

// memoSlot is one remembered value: its bits and where its text sits.
type memoSlot struct {
	bits uint64
	off  uint32
	n    uint16
	gen  uint16
}

// reset forgets every slot before a new response.
func (m *floatMemo) reset() {
	m.gen++
	if m.gen == 0 { // wrapped: stamps of old generations would match again
		m.slots = [1 << memoBits]memoSlot{}
		m.gen = 1
	}
}

// appendFloat appends v as encoding/json renders it, copying the text
// from earlier in b when the same 64 bits were already written.
func (m *floatMemo) appendFloat(b []byte, v float64) ([]byte, error) {
	bits := math.Float64bits(v)
	s := &m.slots[(bits*0x9e3779b97f4a7c15)>>(64-memoBits)]
	if s.gen == m.gen && s.bits == bits {
		return append(b, b[s.off:s.off+uint32(s.n)]...), nil
	}
	off := len(b)
	b, err := appendJSONFloat(b, v)
	if err == nil && uint64(len(b)) <= math.MaxUint32 {
		*s = memoSlot{bits: bits, off: uint32(off), n: uint16(len(b) - off), gen: m.gen}
	}
	return b, err
}

// renderEntry is everything responses for one validated (machine,
// precision, model) share.
type renderEntry struct {
	p  core.Params
	em model.EnergyModel
	renderTemplate
}

// renderKey identifies a renderEntry. The model name is kept as sent:
// "" and "analytic" select the same model but render differently.
type renderKey struct {
	machine string
	prec    machine.Precision
	model   string
}

// renderEntries memoises one server's renderEntry values. Handlers
// validate the key first, so the map holds at most machines ×
// precisions × model names.
type renderEntries struct {
	mu sync.Mutex
	m  map[renderKey]*renderEntry
}

// get returns the entry for a validated triple, building it on first
// use (outside the lock: a blackbox model fits on its first request).
func (r *renderEntries) get(machineKey string, prec machine.Precision, modelName string) (*renderEntry, error) {
	k := renderKey{machineKey, prec, modelName}
	r.mu.Lock()
	e := r.m[k]
	r.mu.Unlock()
	if e != nil {
		return e, nil
	}
	m, ok := catalog()[machineKey]
	if !ok {
		return nil, fmt.Errorf("unknown machine %q", machineKey)
	}
	em, err := model.For(modelName, machineKey, prec)
	if err != nil {
		return nil, err
	}
	p := core.FromMachine(m, prec)
	e = &renderEntry{p: p, em: em, renderTemplate: newRenderTemplate(machineKey, prec.String(), modelName,
		p.BalanceTime(), p.BalanceEnergy(), p.HalfEfficiencyIntensity(), p.RaceToHaltEffective())}
	r.mu.Lock()
	if prev := r.m[k]; prev != nil {
		e = prev
	} else {
		if r.m == nil {
			r.m = map[renderKey]*renderEntry{}
		}
		r.m[k] = e
	}
	r.mu.Unlock()
	return e, nil
}

// batchScratch is the pooled per-request state of /v1/eval and
// /v1/evalbatch: the decoded request columns (a request's Work and
// Intensities alias work and intensities until the handler returns),
// the evaluation columns, the float memo and the body buffer.
type batchScratch struct {
	work        []float64
	intensities []float64

	q                             []float64
	score                         metrics.ScoreColumns
	batch                         core.Batch
	timeBound, energyBound        []core.BoundState
	roofline, archline, powerLine []float64
	cols                          evalColumns
	memo                          floatMemo
	out                           []byte
}

// batchScratchPool recycles batchScratch values across requests.
var batchScratchPool = sync.Pool{New: func() any { return &batchScratch{} }}

// grow returns s resized to n, reusing its capacity when it can.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// evaluate fills sc.cols for the points (w[i], x[i]) on e's model. The
// cost columns come from the EnergyModel's batch kernel, bit-identical
// to its scalar methods; the machine-geometry columns (bounds, curves
// over the raw intensities) are always the analytic closed forms — they
// describe the machine, not a prediction.
func (sc *batchScratch) evaluate(e *renderEntry, w, x []float64) error {
	n := len(x)
	sc.q = grow(sc.q, n)
	core.QAtInto(sc.q, w, x)
	if err := metrics.EvaluateBatchModel(e.em, e.p, &sc.score, &sc.batch, w, sc.q); err != nil {
		return err
	}
	sc.timeBound = grow(sc.timeBound, n)
	sc.energyBound = grow(sc.energyBound, n)
	e.p.TimeBoundInto(sc.timeBound, w, sc.q)
	e.p.EnergyBoundInto(sc.energyBound, w, sc.q)
	sc.roofline = grow(sc.roofline, n)
	sc.archline = grow(sc.archline, n)
	sc.powerLine = grow(sc.powerLine, n)
	e.p.RooflineTimeInto(sc.roofline, x)
	e.p.ArchlineEnergyInto(sc.archline, x)
	e.p.PowerLineInto(sc.powerLine, x)
	sc.cols = evalColumns{
		f: [numFloatCols][]float64{
			colWork:           w,
			colIntensity:      x,
			colTime:           sc.score.Time,
			colEnergy:         sc.score.Energy,
			colPower:          sc.batch.Power,
			colCappedTime:     sc.batch.CappedTime,
			colCappedEnergy:   sc.batch.CappedEnergy,
			colCappedPower:    sc.batch.CappedPower,
			colRoofline:       sc.roofline,
			colArchline:       sc.archline,
			colPowerLine:      sc.powerLine,
			colEDP:            sc.score.EDP,
			colFlopsPerJoule:  sc.score.FlopsPerJoule,
			colFlopsPerSecond: sc.score.FlopsPerSecond,
			colGreenIndex:     sc.score.GreenIndex,
			colSpeedIndex:     sc.score.SpeedIndex,
		},
		timeBound:   sc.timeBound,
		energyBound: sc.energyBound,
	}
	return nil
}

// finish renders sc.cols through t into the pooled buffer and returns
// an exact-size copy, safe to cache after sc returns to the pool.
func (sc *batchScratch) finish(t *renderTemplate, n int, batch bool) ([]byte, error) {
	b, err := t.appendBody(sc.out[:0], &sc.cols, n, batch, &sc.memo)
	sc.out = b[:0]
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// render evaluates and renders one validated request's points on
// scratch sc; op prefixes evaluation errors.
func (s *Server) render(sc *batchScratch, op, machineKey, precision, modelName string, w, x []float64, batch bool) ([]byte, error) {
	prec, err := parsePrecision(precision)
	if err != nil {
		return nil, err
	}
	e, err := s.entries.get(machineKey, prec, modelName)
	if err != nil {
		return nil, badRequest("%s: %v", op, err)
	}
	if err := sc.evaluate(e, w, x); err != nil {
		return nil, badRequest("%s: %v", op, err)
	}
	return sc.finish(&e.renderTemplate, len(x), batch)
}

// evaluatePoint computes the /v1/eval body for a validated request: a
// batch of one, rendered at top-level indentation.
func (s *Server) evaluatePoint(q evalRequest) ([]byte, error) {
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	sc.work = append(sc.work[:0], q.Work)
	sc.intensities = append(sc.intensities[:0], q.Intensity)
	return s.render(sc, "eval", q.Machine, q.Precision, q.Model, sc.work, sc.intensities, false)
}

// evaluateBatch computes the /v1/evalbatch body for a validated
// request. It takes its own scratch: the handler's holds the request's
// decoded columns.
func (s *Server) evaluateBatch(q evalBatchRequest) ([]byte, error) {
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	return s.render(sc, "evalbatch", q.Machine, q.Precision, q.Model, q.Work, q.Intensities, true)
}
