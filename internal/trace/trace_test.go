package trace

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeClock advances a fixed step on every reading, making span
// timings — and everything derived from them — deterministic.
type fakeClock struct {
	mu   sync.Mutex
	now  time.Duration
	step time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += c.step
	return c.now
}

func newFake(step time.Duration) *fakeClock { return &fakeClock{step: step} }

func TestNilTracerIsDisabledAndSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	if tr.Now() != 0 || tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Error("nil tracer leaks state")
	}
	tr.Reset()

	ctx := WithTracer(context.Background(), nil)
	if FromContext(ctx) != nil {
		t.Error("nil tracer attached to context")
	}
	ctx2, sp := Start(ctx, "phase")
	if ctx2 != ctx {
		t.Error("disabled Start should return the context unchanged")
	}
	if sp != nil {
		t.Error("disabled Start should return a nil span")
	}
	sp.Tag("k", "v")
	sp.End() // must not panic
}

func TestSpanRecordingAndNesting(t *testing.T) {
	tr := New(Config{Clock: newFake(time.Millisecond)})
	ctx := WithTracer(context.Background(), tr)

	ctx, root := Start(ctx, "outer")
	root.Tag("machine", "gtx580")
	_, child := Start(ctx, "inner")
	child.Tag("rep", 3)
	child.End()
	root.End()

	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	// Ring order is completion order: inner first.
	inner, outer := events[0], events[1]
	if inner.Name != "inner" || outer.Name != "outer" {
		t.Fatalf("event order %q, %q", inner.Name, outer.Name)
	}
	if inner.Track != outer.Track {
		t.Errorf("child track %d != parent track %d", inner.Track, outer.Track)
	}
	if len(outer.Tags) != 1 || outer.Tags[0].Key != "machine" || outer.Tags[0].Val != "gtx580" {
		t.Errorf("outer tags wrong: %+v", outer.Tags)
	}
	if inner.Dur <= 0 || outer.Dur <= inner.Dur {
		t.Errorf("durations not nested: outer %v, inner %v", outer.Dur, inner.Dur)
	}
}

func TestRootSpansGetDistinctTracks(t *testing.T) {
	tr := New(Config{Clock: newFake(time.Millisecond)})
	ctx := WithTracer(context.Background(), tr)
	_, a := Start(ctx, "a")
	_, b := Start(ctx, "b")
	a.End()
	b.End()
	events := tr.Events()
	if events[0].Track == events[1].Track {
		t.Errorf("independent roots share track %d", events[0].Track)
	}
}

func TestEndIsIdempotent(t *testing.T) {
	tr := New(Config{Clock: newFake(time.Millisecond)})
	_, sp := tr.StartRoot(context.Background(), "once")
	sp.End()
	sp.End()
	if got := tr.Len(); got != 1 {
		t.Errorf("double End recorded %d events, want 1", got)
	}
}

func TestRingBufferWrapsAndCounts(t *testing.T) {
	tr := New(Config{Capacity: 4, Clock: newFake(time.Millisecond)})
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 10; i++ {
		_, sp := Start(ctx, string(rune('a'+i)))
		sp.End()
	}
	if got := tr.Len(); got != 4 {
		t.Errorf("ring holds %d, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Errorf("dropped %d, want 6", got)
	}
	events := tr.Events()
	// Oldest-first: the surviving events are g, h, i, j.
	want := []string{"g", "h", "i", "j"}
	for i, ev := range events {
		if ev.Name != want[i] {
			t.Errorf("event %d = %q, want %q", i, ev.Name, want[i])
		}
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Error("Reset did not clear the ring")
	}
}

func TestObserverSeesEverySpan(t *testing.T) {
	var mu sync.Mutex
	got := map[string]time.Duration{}
	tr := New(Config{
		Clock: newFake(time.Millisecond),
		Observer: func(name string, d time.Duration) {
			mu.Lock()
			got[name] += d
			mu.Unlock()
		},
	})
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 3; i++ {
		_, sp := Start(ctx, "phase")
		sp.End()
	}
	if got["phase"] != 3*time.Millisecond {
		t.Errorf("observer total %v, want 3ms", got["phase"])
	}
}

func TestConcurrentSpansAreAllRecorded(t *testing.T) {
	tr := New(Config{Capacity: 1 << 12})
	ctx := WithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	const n = 64
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				_, sp := Start(ctx, "work")
				sp.Tag("i", i)
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := tr.Len(); got != n*10 {
		t.Errorf("recorded %d spans, want %d", got, n*10)
	}
}

// TestDrainLosesNoSpans records from several goroutines into a small
// ring while the test drains it repeatedly: every span recorded is
// either in some drained snapshot or counted as dropped, exactly. A
// copy followed by a separate Reset loses the spans recorded between
// the two, which this count exposes.
func TestDrainLosesNoSpans(t *testing.T) {
	tr := New(Config{Capacity: 64})
	const writers, perWriter = 8, 20000
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.Record(Event{Name: "work"})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var drained, dropped uint64
	drains := 0
	for finished := false; !finished; drains++ {
		select {
		case <-done:
			finished = true // one last drain after every writer returned
		default:
		}
		s := tr.Drain()
		drained += uint64(len(s.Events))
		dropped += s.Dropped
	}
	if got, want := drained+dropped, uint64(writers*perWriter); got != want {
		t.Fatalf("%d drained + %d dropped = %d over %d drains, want %d recorded",
			drained, dropped, got, drains, want)
	}
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Errorf("ring not empty after the final drain: len %d, dropped %d", tr.Len(), tr.Dropped())
	}
	var nilTracer *Tracer
	if s := nilTracer.Drain(); s.Events != nil || s.Dropped != 0 {
		t.Errorf("disabled tracer drained %+v", s)
	}
}

// TestRecordInjectsVirtualSpans pins the simulator injection path: a
// pre-built event lands in the ring exactly as constructed (virtual
// start/duration/track), feeds the Observer, respects the ring bound,
// and is a no-op on a disabled tracer.
func TestRecordInjectsVirtualSpans(t *testing.T) {
	var observed []time.Duration
	tr := New(Config{Capacity: 4, Observer: func(name string, d time.Duration) {
		if name == "sim.serve" {
			observed = append(observed, d)
		}
	}})
	ev := Event{
		Name:  "sim.serve",
		Track: 7,
		Start: 1500 * time.Millisecond,
		Dur:   20 * time.Millisecond,
		Tags:  []Tag{{Key: "replica", Val: 7}},
	}
	tr.Record(ev)
	events := tr.Events()
	if len(events) != 1 {
		t.Fatalf("ring has %d events, want 1", len(events))
	}
	got := events[0]
	if got.Name != ev.Name || got.Track != 7 || got.Start != ev.Start || got.Dur != ev.Dur {
		t.Errorf("recorded event mangled: %+v", got)
	}
	if len(observed) != 1 || observed[0] != 20*time.Millisecond {
		t.Errorf("observer saw %v, want one 20ms duration", observed)
	}
	// Ring bound: recording past capacity overwrites oldest and counts.
	for i := 0; i < 6; i++ {
		tr.Record(Event{Name: "sim.serve", Start: time.Duration(i) * time.Second})
	}
	if tr.Len() != 4 {
		t.Errorf("Len = %d, want capacity 4", tr.Len())
	}
	if tr.Dropped() == 0 {
		t.Error("overwrites not counted")
	}
	// Disabled tracer: no-op.
	var nilTracer *Tracer
	nilTracer.Record(ev)
}
