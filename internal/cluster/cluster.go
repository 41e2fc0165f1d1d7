// Package cluster is a deterministic discrete-event simulator of a
// fleet of rooflined replicas behind a routing tier. Each simulated
// replica prices its requests with the paper's energy roofline
// (internal/core) and serves them through the result cache and request
// keys rooflined itself runs (internal/rescache), coalescing concurrent
// misses the way rooflined does, so fleet-level cache hit rates,
// coalesce ratios, and energy totals come from the production cache
// and keying. What a replica does not share with rooflined is its
// service cost: that is the roofline's closed form on a virtual clock.
//
// Determinism is the load-bearing property: a (Scenario, policy) cell
// runs single-threaded with all randomness derived via
// stats.DeriveSeed, and parallelism exists only across cells
// (parallel.Map preserves result order), so a fleet report is
// byte-identical at any worker count. The golden tests pin exactly
// that.
package cluster

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/rescache"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ReplicaSpec describes one simulated replica.
type ReplicaSpec struct {
	// Machine names a catalog machine ("fermi", "gtx580", "i7-950",
	// "future") whose roofline parameters price this replica's kernels.
	Machine string `json:"machine"`
	// Precision selects the operand width ("single" or "double";
	// empty means double).
	Precision string `json:"precision,omitempty"`
	// CacheEntries bounds the replica's result cache in entries.
	CacheEntries int `json:"cache_entries"`
	// CacheBytes bounds the replica's result cache in body bytes.
	CacheBytes int64 `json:"cache_bytes"`
	// Model names the EnergyModel the energy-aware router prices this
	// replica's misses with ("analytic" or "blackbox"; empty means
	// analytic, which routes byte-identically to the pre-interface
	// simulator). Service times and served-energy accounting always
	// use the analytic closed forms — the replica's simulated hardware
	// is the roofline; Model only changes the router's beliefs.
	Model string `json:"model,omitempty"`
	// OperatingPoint pins the replica to one named point of its
	// machine's DVFS curve (the machine must come from the DVFS
	// catalog). Service times, served energy, idle power, and the
	// router's pricing all use the pinned parameters. Empty means full
	// clock. Requires the analytic model: a blackbox fitted at base
	// clock has no beliefs about other operating points.
	OperatingPoint string `json:"operating_point,omitempty"`
}

// precisionName returns the precision string the production server
// keys requests with (empty means double).
func (spec ReplicaSpec) precisionName() string {
	if spec.Precision == "" {
		return "double"
	}
	return spec.Precision
}

// Options parameterise RunScenario.
type Options struct {
	// Workers bounds the policy-level parallelism (each policy cell is
	// itself single-threaded); <1 means GOMAXPROCS.
	Workers int
	// Tracer, when non-nil, receives per-replica "replica.serve" spans
	// stamped with virtual timestamps (Track = policy*trackStride +
	// replica + 1). Tracing never affects the report.
	Tracer *trace.Tracer
	// Trace overrides the scenario's generated workload with a replayed
	// request stream (e.g. one loaded via workload.ParseTrace).
	// RunScenario rejects a trace that fails workload.Trace.Validate: a
	// closed trace, for one, needs no more clients than requests. Request
	// i of a closed trace is on client i % Clients by construction, so
	// the closed loop wakes request i + Clients when request i completes.
	Trace *workload.Trace
	// routeObserver, when set, is invoked with every routing decision
	// before the request is applied to the chosen replica — the hook
	// the property tests use to audit policies in situ.
	routeObserver func(now float64, req workload.Request, replica int, f *Fleet)
}

// hitBody is the synthetic response body cached per distinct key; its
// length is what the cache's byte bound meters.
var hitBody = make([]byte, 256)

// replica is one simulated server: roofline pricing, the production
// result cache, coalescing bookkeeping, and a FIFO service queue.
type replica struct {
	id      int
	spec    ReplicaSpec
	params  core.Params
	model   model.EnergyModel // prices router estimates; analytic unless spec.Model overrides
	prices  []kernelPrice     // the spec's price table, indexed by kernel id
	cache   *rescache.Cache
	flights map[uint64]*simFlight // in-progress engine runs by key

	queue     []pending // FIFO of engine runs; head is queue[qhead]
	qhead     int
	busy      bool
	busyTill  float64
	queuedSvc float64 // summed service estimates of jobs behind the head

	requests  int
	coalesced int
	engine    int
	busyTime  float64
	kernelJ   float64
	maxQueue  int
}

// simFlight is the in-flight state for one coalesced key: the requests
// that joined after the leader, waiting for its completion. Finished
// flights return to their cell's free list with their waiter slices.
type simFlight struct {
	waiters []pending
}

// pending is one request inside the simulator: its trace index, its
// kernel id, and the arrival instant latency is measured from.
type pending struct {
	arrival float64
	idx     int32
	kernel  int32
}

// resolveSpec returns the roofline parameters replica i's spec serves
// at and the EnergyModel its router estimates price with.
func resolveSpec(i int, spec ReplicaSpec) (core.Params, model.EnergyModel, error) {
	m, ok := machine.Find(spec.Machine)
	if !ok {
		return core.Params{}, nil, fmt.Errorf("cluster: replica %d names unknown machine %q", i, spec.Machine)
	}
	prec, err := machine.ParsePrecision(spec.Precision)
	if err != nil {
		return core.Params{}, nil, fmt.Errorf("cluster: replica %d: %w", i, err)
	}
	params := core.FromMachine(m, prec)
	switch {
	case spec.OperatingPoint != "":
		op, found := m.Point(spec.OperatingPoint)
		if !found {
			return core.Params{}, nil, fmt.Errorf("cluster: replica %d: machine %q has no operating point %q", i, spec.Machine, spec.OperatingPoint)
		}
		if spec.Model != "" && spec.Model != model.AnalyticName {
			return core.Params{}, nil, fmt.Errorf("cluster: replica %d: model %q cannot price operating point %q; a model fitted at base clock has no beliefs about other points", i, spec.Model, spec.OperatingPoint)
		}
		params = params.AtOperatingPoint(op)
		return params, model.NewAnalytic(params), nil
	case spec.Model == "" || spec.Model == model.AnalyticName:
		// Built directly from the resolved machine so DVFS-catalog-only
		// machines (the multi-SM family) work; identical parameters to
		// model.For for base catalog keys.
		return params, model.NewAnalytic(params), nil
	default:
		em, err := model.For(spec.Model, spec.Machine, prec)
		if err != nil {
			return core.Params{}, nil, fmt.Errorf("cluster: replica %d: %w", i, err)
		}
		return params, em, nil
	}
}

// queueLen counts requests in service or queued (coalesced waiters
// excluded: they consume no service slot).
func (r *replica) queueLen() int {
	n := len(r.queue) - r.qhead
	if r.busy {
		n++
	}
	return n
}

// pendingWork estimates the seconds of service ahead of a new arrival:
// the remainder of the in-service job plus the priced queue behind it.
func (r *replica) pendingWork(now float64) float64 {
	w := r.queuedSvc
	if r.busy && r.busyTill > now {
		w += r.busyTill - now
	}
	return w
}

// Fleet is the set of replicas one policy run routes over, exposed to
// Policy implementations for probing replica state.
type Fleet struct {
	reps       []*replica
	hitLatency float64
	// kernel is the kernel id of the request being routed, set by the
	// event loop before every Route call so policies can read the
	// replicas' price tables.
	kernel int32
	// holders has one row of words bits per kernel id: bit i of row k
	// is set while replica i may cache kernel k. complete sets it on
	// every Put, and estimateInto clears it when its Peek finds the
	// kernel evicted. Put is the only way into a simulated cache and
	// eviction the only way out, so a clear bit proves the kernel
	// absent and only set bits need a Peek. That assumes a spec's
	// price table gives distinct kernels distinct keys, which fails
	// only on a 64-bit EvalKey collision.
	holders []uint64
	words   int
	// estT and estE are scratch columns the energy-aware policy gathers
	// per-replica (time, energy) estimates into before classifying them
	// with the batch eq. 10 vocabulary; reused across Route calls so
	// routing allocates nothing in steady state.
	estT, estE []float64
}

// NumReplicas returns the fleet size.
func (f *Fleet) NumReplicas() int { return len(f.reps) }

// QueueLen returns replica i's current queue occupancy (in service +
// waiting, coalesced waiters excluded).
func (f *Fleet) QueueLen(i int) int { return f.reps[i].queueLen() }

// maxSpansPerPolicy bounds the virtual spans one policy cell records,
// so tracing a million-request scenario cannot swamp the ring buffer.
const maxSpansPerPolicy = 2000

// sim is one (scenario, policy) cell's mutable state.
type sim struct {
	fleet   *Fleet
	policy  Policy
	closed  bool
	trace   []workload.Request
	kernels []int32 // per trace request: its kernel id
	clients int     // closed-loop client count

	events eventQueue
	free   []*simFlight // finished flights, ready for reuse
	seq    uint64

	now       float64
	makespan  float64
	latencies []float64
	observer  func(now float64, req workload.Request, replica int, f *Fleet)

	tracer   *trace.Tracer
	track0   uint64
	recorded int
}

// push schedules an event.
func (s *sim) push(time float64, kind uint64, arg int32) {
	s.events.push(newEvent(time, kind, s.seq, arg))
	s.seq++
}

// runPolicy drives the whole request stream through a fresh fleet under
// one policy and returns that cell's report. Single-threaded by
// construction: every data structure here is confined to this call,
// apart from the price tables, which are only read.
func runPolicy(sc *Scenario, tr *workload.Trace, kernels []int32, prices []*specPrices, policy Policy, opts Options, policyIdx int) (PolicyReport, error) {
	reps := make([]*replica, len(sc.Replicas))
	for i, spec := range sc.Replicas {
		reps[i] = &replica{
			id:      i,
			spec:    spec,
			params:  prices[i].params,
			model:   prices[i].model,
			prices:  prices[i].table,
			cache:   rescache.New(spec.CacheEntries, spec.CacheBytes),
			flights: map[uint64]*simFlight{},
		}
	}
	words := (len(reps) + 63) / 64
	s := &sim{
		fleet: &Fleet{
			reps:       reps,
			hitLatency: sc.HitLatency,
			holders:    make([]uint64, len(prices[0].table)*words),
			words:      words,
		},
		policy:   policy,
		closed:   tr.Closed,
		trace:    tr.Requests,
		kernels:  kernels,
		clients:  tr.Clients,
		events:   make(eventQueue, 0, tr.Clients+len(reps)),
		observer: opts.routeObserver,
		tracer:   opts.Tracer,
		track0:   uint64(policyIdx)*trackStride + 1,
	}
	s.latencies = make([]float64, 0, len(tr.Requests))

	if s.closed {
		// Seed each client's first request; requests i < Clients belong
		// to client i exactly once under the i%C assignment.
		for c := 0; c < tr.Clients; c++ {
			s.push(tr.Requests[c].Time, evArrival, int32(c))
		}
		for len(s.events) > 0 {
			s.step(s.events.pop())
		}
	} else {
		// Open loop: merge the pre-sorted arrival stream with the queue,
		// which then holds only completions.
		for next := 0; next < len(s.trace) || len(s.events) > 0; {
			if len(s.events) > 0 && (next >= len(s.trace) || s.events[0].time <= s.trace[next].Time) {
				s.step(s.events.pop())
				continue
			}
			s.arrive(pending{arrival: s.trace[next].Time, idx: int32(next), kernel: s.kernels[next]})
			next++
		}
	}
	return s.report(policy.Name())
}

// trackStride spaces the trace lanes of consecutive policies so their
// replica tracks never collide.
const trackStride = 256

// step dispatches one queued event.
func (s *sim) step(ev simEvent) {
	s.now = ev.time
	if ev.kind() == evCompletion {
		s.complete(int(ev.arg))
		return
	}
	s.arrive(pending{arrival: ev.time, idx: ev.arg, kernel: s.kernels[ev.arg]})
}

// arrive routes one request and applies the cache / coalesce / enqueue
// cascade at its destination.
func (s *sim) arrive(p pending) {
	if p.arrival > s.now {
		s.now = p.arrival
	}
	s.fleet.kernel = p.kernel
	idx := s.policy.Route(s.now, &s.trace[p.idx], s.fleet)
	if s.observer != nil {
		s.observer(s.now, s.trace[p.idx], idx, s.fleet)
	}
	rep := s.fleet.reps[idx]
	rep.requests++
	price := &rep.prices[p.kernel]
	if _, ok := rep.cache.Get(price.key); ok {
		s.finish(p, s.now+s.fleet.hitLatency)
		return
	}
	if f, joined := rep.flights[price.key]; joined {
		rep.coalesced++
		f.waiters = append(f.waiters, p)
		return
	}
	rep.flights[price.key] = s.takeFlight()
	rep.queue = append(rep.queue, p)
	if rep.busy {
		rep.queuedSvc += price.svc
	} else {
		s.startService(rep)
	}
	if l := rep.queueLen(); l > rep.maxQueue {
		rep.maxQueue = l
	}
}

// takeFlight pops a finished flight off the free list, allocating one
// only when the list is empty.
func (s *sim) takeFlight() *simFlight {
	if n := len(s.free); n > 0 {
		f := s.free[n-1]
		s.free = s.free[:n-1]
		return f
	}
	return &simFlight{}
}

// startService begins the head-of-queue job on an idle replica.
func (s *sim) startService(rep *replica) {
	svc := rep.prices[rep.queue[rep.qhead].kernel].svc
	rep.busy = true
	rep.busyTill = s.now + svc
	s.push(rep.busyTill, evCompletion, int32(rep.id))
	s.record(rep, s.now, svc)
}

// record emits one virtual "replica.serve" span, bounded per policy.
func (s *sim) record(rep *replica, start, dur float64) {
	if s.tracer == nil || s.recorded >= maxSpansPerPolicy {
		return
	}
	s.recorded++
	s.tracer.Record(trace.Event{
		Name:  "replica.serve",
		Track: s.track0 + uint64(rep.id),
		Start: time.Duration(start * float64(time.Second)),
		Dur:   time.Duration(dur * float64(time.Second)),
		Tags: []trace.Tag{
			{Key: "policy", Val: s.policy.Name()},
			{Key: "replica", Val: rep.id},
			{Key: "machine", Val: rep.spec.Machine},
		},
	})
}

// complete finishes the in-service job on replica id: account the
// engine run, populate the cache, release the coalesced waiters, and
// pull the next job.
func (s *sim) complete(id int) {
	rep := s.fleet.reps[id]
	j := rep.queue[rep.qhead]
	rep.qhead++
	if rep.qhead == len(rep.queue) {
		rep.queue = rep.queue[:0]
		rep.qhead = 0
	}
	price := &rep.prices[j.kernel]
	rep.engine++
	rep.busyTime += price.svc
	rep.kernelJ += price.joules
	rep.cache.Put(price.key, hitBody)
	s.fleet.holders[int(j.kernel)*s.fleet.words+id/64] |= 1 << (id % 64)
	s.finish(j, s.now)
	if f, ok := rep.flights[price.key]; ok {
		for _, w := range f.waiters {
			s.finish(w, s.now)
		}
		delete(rep.flights, price.key)
		f.waiters = f.waiters[:0]
		s.free = append(s.free, f)
	}
	rep.busy = false
	if rep.qhead < len(rep.queue) {
		rep.queuedSvc -= rep.prices[rep.queue[rep.qhead].kernel].svc
		if rep.queuedSvc < 0 {
			rep.queuedSvc = 0
		}
		s.startService(rep)
	}
}

// finish completes one request at time done: record its latency and,
// in a closed-loop run, wake its client for the next request.
func (s *sim) finish(p pending, done float64) {
	s.latencies = append(s.latencies, done-p.arrival)
	if done > s.makespan {
		s.makespan = done
	}
	if !s.closed {
		return
	}
	// Request i belongs to client i % clients (a row stores no client,
	// and ParseTrace rejects a file that names another), so the client's
	// next request is i + clients.
	i := int(p.idx) + s.clients
	if i >= len(s.trace) {
		return
	}
	// Time is the think delay for closed traces.
	s.push(done+s.trace[i].Time, evArrival, int32(i))
}

// RunScenario generates (or replays) the scenario's workload and drives
// it through a fresh fleet under every listed policy. The trace's
// kernels are indexed once, and each distinct replica spec is resolved
// and priced once; every cell builds its replicas from those. Policy
// cells run in parallel up to opts.Workers; each cell is
// single-threaded and owns its fleet, so the report bytes are
// independent of the worker count.
func RunScenario(ctx context.Context, sc Scenario, opts Options) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	tr := opts.Trace
	if tr != nil {
		if err := tr.Validate(); err != nil {
			return nil, err
		}
	} else {
		var err error
		tr, err = workload.Generate(sc.Workload)
		if err != nil {
			return nil, err
		}
	}
	ix := indexKernels(tr.Requests)
	prices, err := priceReplicas(sc.Replicas, ix)
	if err != nil {
		return nil, err
	}
	policies := sc.Policies
	if len(policies) == 0 {
		policies = PolicyNames()
	}
	cells, err := parallel.Map(ctx, len(policies), opts.Workers, func(_ context.Context, i int) (PolicyReport, error) {
		p, err := NewPolicy(policies[i], len(sc.Replicas), stats.DeriveSeed(sc.Workload.Seed, labelPolicy, stats.HashLabel(policies[i])))
		if err != nil {
			return PolicyReport{}, err
		}
		return runPolicy(&sc, tr, ix.ids, prices, p, opts, i)
	})
	if err != nil {
		return nil, err
	}
	return &Report{
		Scenario:    sc.Name,
		Description: sc.Desc,
		Replicas:    len(sc.Replicas),
		Requests:    len(tr.Requests),
		Workload:    tr.Spec.Kind,
		Policies:    cells,
	}, nil
}

// labelPolicy derives per-policy seeds from the workload seed.
const labelPolicy = 0x504f4c43 // "POLC"
