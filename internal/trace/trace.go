// Package trace is the execution-tracing layer behind the `-trace`
// flags and the server's /debug/trace endpoint: a low-overhead span
// tracer that attributes wall-clock time to the phases of a campaign —
// per-machine pipelines, per-precision sweeps, individual repetitions,
// worker-pool queueing — the way Hofmann et al. attribute measured time
// to phases when validating analytic energy models.
//
// Design constraints, in order:
//
//   - Determinism safety. Tracing must never touch the measurement
//     pipeline's random streams or outputs: spans record only names,
//     tags, and clock readings, so a traced campaign is byte-identical
//     to an untraced one (pinned by the e2e tests). The clock itself is
//     an interface so tests can inject a deterministic one and pin the
//     exporter's output exactly.
//   - Disabled means free. A nil *Tracer is a valid, disabled tracer:
//     every method is nil-safe and returns immediately, and Start
//     performs a single context lookup before bailing out. The
//     instrumented hot paths therefore cost one pointer check per span
//     site when tracing is off (pinned by the overhead benchmark).
//   - Bounded memory. Completed spans land in a fixed-capacity ring
//     buffer; overflow overwrites the oldest events and is counted, so
//     a long-lived server can leave tracing on without growing.
//
// Spans propagate through context.Context: WithTracer attaches a
// tracer, Start opens a span (inheriting the parent span's track, so
// one goroutine's nested phases share a lane in the exported trace),
// and End records it. Export produces Chrome trace_event JSON that
// chrome://tracing and Perfetto open directly; the Observer hook feeds
// each finished span to the /metrics latency histograms.
package trace

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Clock supplies monotonic timestamps as offsets from an arbitrary
// epoch. The default clock reads the wall clock's monotonic component;
// tests inject a fake to make span timings — and therefore exporter
// output — fully deterministic.
type Clock interface {
	// Now returns the time elapsed since the clock's epoch.
	Now() time.Duration
}

// wallClock is the production clock: monotonic time since creation.
type wallClock struct{ epoch time.Time }

// Now implements Clock via the runtime's monotonic reading.
func (c wallClock) Now() time.Duration { return time.Since(c.epoch) }

// Tag is one span annotation. Values are kept as `any` so counts and
// durations export as JSON numbers rather than quoted strings.
type Tag struct {
	// Key names the annotation (e.g. "machine", "queue_wait_us").
	Key string
	// Val is the annotation value; strings, ints, and floats all
	// marshal naturally into trace_event args.
	Val any
}

// Event is one completed span as stored in the ring buffer.
type Event struct {
	// Name is the span name (the phase label, e.g. "campaign.sweep").
	Name string
	// Track is the lane the span renders on: root spans allocate a
	// fresh track, children inherit their parent's, so each concurrent
	// chain of work — in practice, each worker goroutine's task — gets
	// its own row in the trace viewer.
	Track uint64
	// Start is the span's start offset from the tracer's epoch.
	Start time.Duration
	// Dur is the span's duration.
	Dur time.Duration
	// Tags are the span's annotations, in the order they were set.
	Tags []Tag
}

// Span is an in-progress phase. Obtain one from Start; finish it with
// End. A nil *Span (what Start returns when tracing is disabled) is
// valid: all methods are no-ops.
type Span struct {
	tracer *Tracer
	name   string
	track  uint64
	start  time.Duration
	tags   []Tag
	ended  atomic.Bool
}

// Config parameterises a Tracer. The zero value gets defaults.
type Config struct {
	// Capacity bounds the ring buffer in completed spans; <= 0 means
	// DefaultCapacity. Overflow overwrites the oldest events (counted
	// by Dropped), never grows memory.
	Capacity int
	// Clock overrides the monotonic wall clock (tests inject a
	// deterministic one).
	Clock Clock
	// Observer, when non-nil, is invoked synchronously with every
	// completed span's name and duration — the bridge that feeds
	// per-phase latency histograms in a metrics registry without this
	// package depending on it. It may be called concurrently.
	Observer func(name string, d time.Duration)
}

// DefaultCapacity is the ring size used when Config.Capacity is unset:
// enough for a default campaign's per-rep spans with headroom.
const DefaultCapacity = 1 << 16

// Tracer records spans into a bounded ring. A nil *Tracer is a valid
// disabled tracer; a non-nil Tracer is safe for concurrent use.
type Tracer struct {
	clock    Clock
	observer func(string, time.Duration)

	nextTrack atomic.Uint64

	mu      sync.Mutex
	ring    []Event
	next    int    // ring index of the next write
	filled  bool   // ring has wrapped at least once
	dropped uint64 // events overwritten after wrapping
}

// New returns an enabled tracer.
func New(cfg Config) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.Clock == nil {
		cfg.Clock = wallClock{epoch: time.Now()}
	}
	return &Tracer{
		clock:    cfg.Clock,
		observer: cfg.Observer,
		ring:     make([]Event, cfg.Capacity),
	}
}

// Enabled reports whether spans are being recorded. It is the nil
// check, spelled for call sites.
func (t *Tracer) Enabled() bool { return t != nil }

// Now returns the tracer's clock reading (0 on a disabled tracer) —
// used by call sites that measure sub-span intervals like queue wait.
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return t.clock.Now()
}

// ctxKey keys context values; separate types for tracer and span.
type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)

// WithTracer returns a context carrying t. Attaching a nil tracer
// returns ctx unchanged, so call sites need no special casing.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// FromContext returns the context's tracer, or nil (a valid disabled
// tracer) when none is attached or ctx itself is nil.
func FromContext(ctx context.Context) *Tracer {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// Start opens a span named name under the context's tracer and returns
// a context carrying the new span (for child spans to inherit its
// track) plus the span itself. When the context carries no tracer both
// returns are what cost nothing: the original context and a nil span.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	t := FromContext(ctx)
	if t == nil {
		return ctx, nil
	}
	s := t.start(name, parentTrack(ctx, t))
	return context.WithValue(ctx, spanKey, s), s
}

// StartRoot opens a span directly on t, outside any context chain —
// the form server handlers use before a request context exists. The
// returned context carries both the tracer and the span.
func (t *Tracer) StartRoot(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	s := t.start(name, t.nextTrack.Add(1))
	ctx = context.WithValue(WithTracer(ctx, t), spanKey, s)
	return ctx, s
}

// parentTrack resolves the track a new span should render on: the
// enclosing span's lane, or a fresh one for a root span.
func parentTrack(ctx context.Context, t *Tracer) uint64 {
	if p, _ := ctx.Value(spanKey).(*Span); p != nil {
		return p.track
	}
	return t.nextTrack.Add(1)
}

// start allocates and stamps a span.
func (t *Tracer) start(name string, track uint64) *Span {
	return &Span{tracer: t, name: name, track: track, start: t.clock.Now()}
}

// Tag annotates the span; it returns the span so sites can chain tags
// at creation. Nil-safe. Not synchronised: tag a span only from the
// goroutine that started it, before End.
func (s *Span) Tag(key string, val any) *Span {
	if s == nil {
		return nil
	}
	s.tags = append(s.tags, Tag{Key: key, Val: val})
	return s
}

// End completes the span and commits it to the ring buffer. Nil-safe
// and idempotent: second and later calls are no-ops, so `defer
// sp.End()` composes with early explicit ends.
func (s *Span) End() {
	if s == nil || s.ended.Swap(true) {
		return
	}
	t := s.tracer
	end := t.clock.Now()
	t.Record(Event{Name: s.name, Track: s.track, Start: s.start, Dur: end - s.start, Tags: s.tags})
}

// Record commits a pre-built completed event directly to the ring —
// the injection path for discrete-event simulators (internal/cluster)
// that stamp spans with *virtual* timestamps instead of readings from
// the tracer's clock, yet want the same ring-buffer bounds, Observer
// hook, and Chrome exporter as live spans. The caller owns Start, Dur,
// and Track (simulators typically map Track to a replica lane).
// Nil-safe: recording on a disabled tracer is a no-op.
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	if t.observer != nil {
		t.observer(ev.Name, ev.Dur)
	}
	t.mu.Lock()
	if t.filled {
		t.dropped++
	}
	t.ring[t.next] = ev
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.filled = true
	}
	t.mu.Unlock()
}

// Events returns the recorded spans, oldest first. On a disabled
// tracer it returns nil.
func (t *Tracer) Events() []Event {
	return t.snapshot(false).Events
}

// Snapshot is one consistent copy of a tracer's ring.
type Snapshot struct {
	// Events are the recorded spans, oldest first.
	Events []Event
	// Dropped counts the spans the ring overwrote before this copy was
	// taken: since the tracer was created, reset or last drained.
	Dropped uint64
}

// Drain returns the recorded spans with the drop count and empties the
// ring, all under one lock, so a span recorded concurrently lands
// either in this snapshot or in the next one, never in neither. On a
// disabled tracer it returns an empty snapshot.
func (t *Tracer) Drain() Snapshot {
	return t.snapshot(true)
}

// snapshot copies the ring and the drop count under one lock, emptying
// the ring as well when drain is set.
func (t *Tracer) snapshot(drain bool) Snapshot {
	if t == nil {
		return Snapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Snapshot{Dropped: t.dropped}
	if !t.filled {
		s.Events = append([]Event(nil), t.ring[:t.next]...)
	} else {
		s.Events = make([]Event, 0, len(t.ring))
		s.Events = append(s.Events, t.ring[t.next:]...)
		s.Events = append(s.Events, t.ring[:t.next]...)
	}
	if drain {
		t.next, t.filled, t.dropped = 0, false, 0
	}
	return s
}

// Len returns the number of recorded spans currently in the ring.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.filled {
		return len(t.ring)
	}
	return t.next
}

// Dropped returns how many spans the ring has overwritten since the
// tracer was created.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Reset discards all recorded spans (the ring keeps its capacity).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next = 0
	t.filled = false
	t.dropped = 0
	t.mu.Unlock()
}
