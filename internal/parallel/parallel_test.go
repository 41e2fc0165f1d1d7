package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
}

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		out, err := Map(context.Background(), 500, workers, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 500 {
			t.Fatalf("workers=%d: %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestForEachRunsEveryTaskExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		counts := make([]atomic.Int32, 300)
		err := ForEach(context.Background(), 300, workers, func(_ context.Context, i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if n := counts[i].Load(); n != 1 {
				t.Errorf("workers=%d: task %d ran %d times", workers, i, n)
			}
		}
	}
}

func TestEmptyAndNegativeTaskCounts(t *testing.T) {
	ran := false
	if err := ForEach(context.Background(), 0, 4, func(context.Context, int) error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ForEach(context.Background(), -5, 4, func(context.Context, int) error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("tasks ran for n <= 0")
	}
	out, err := Map(context.Background(), 0, 4, func(context.Context, int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Errorf("Map on empty input: %v, %v", out, err)
	}
}

func TestNilContextDefaults(t *testing.T) {
	//lint:ignore SA1012 the nil default is part of the contract under test
	var nilCtx context.Context
	if err := ForEach(nilCtx, 10, 4, func(context.Context, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	err := ForEach(context.Background(), 10, 1, func(_ context.Context, i int) error {
		ran = append(ran, i)
		if i == 4 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if len(ran) != 5 || ran[4] != 4 {
		t.Errorf("ran = %v, want [0 1 2 3 4]", ran)
	}
}

func TestParallelErrorPropagationAndSkipping(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int32
	err := ForEach(context.Background(), 10_000, 8, func(_ context.Context, i int) error {
		started.Add(1)
		if i == 17 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// Cancellation must prevent the vast majority of the 10k tasks from
	// ever starting (some in-flight overshoot is inherent).
	if n := started.Load(); n > 5000 {
		t.Errorf("%d tasks started after early error; cancellation not effective", n)
	}
}

func TestLowestIndexedObservedErrorWins(t *testing.T) {
	// Every task fails with an index-tagged error. Sequentially the
	// report must be task 0's error exactly; in parallel it must be one
	// of the injected errors (the lowest-indexed failure that actually
	// ran — which one ran is scheduling-dependent).
	err := ForEach(context.Background(), 100, 1, func(_ context.Context, i int) error {
		return fmt.Errorf("task %03d failed", i)
	})
	if err == nil || !strings.Contains(err.Error(), "task 000") {
		t.Errorf("workers=1: got %v, want task 000's failure", err)
	}
	for _, workers := range []int{2, 8} {
		err := ForEach(context.Background(), 100, workers, func(_ context.Context, i int) error {
			return fmt.Errorf("task %03d failed", i)
		})
		if err == nil || !strings.Contains(err.Error(), "failed") {
			t.Errorf("workers=%d: got %v, want an injected failure", workers, err)
		}
	}
}

func TestPanicBecomesPanicError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEach(context.Background(), 50, workers, func(_ context.Context, i int) error {
			if i == 13 {
				panic("kernel exploded")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Index != 13 || pe.Value != "kernel exploded" {
			t.Errorf("workers=%d: PanicError = {Index: %d, Value: %v}", workers, pe.Index, pe.Value)
		}
		if len(pe.Stack) == 0 || !strings.Contains(err.Error(), "kernel exploded") {
			t.Errorf("workers=%d: panic error lacks stack or message: %v", workers, err)
		}
	}
}

func TestCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- ForEach(ctx, 1000, 4, func(ctx context.Context, i int) error {
			started.Add(1)
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
	}()
	// Let a few tasks block, then cancel the sweep out from under them.
	for started.Load() < 4 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	err := <-done
	close(release)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n >= 1000 {
		t.Errorf("all %d tasks started despite cancellation", n)
	}
}

func TestPreCancelledContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	for _, workers := range []int{1, 4} {
		err := ForEach(ctx, 100, workers, func(context.Context, int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
	}
	if ran.Load() != 0 {
		t.Errorf("%d tasks ran under a cancelled context", ran.Load())
	}
}

// TestStressManyTasksManyWorkers hammers the pool with far more workers
// than tasks and vice versa, plus injected errors and panics on random
// indices, to give the race detector surface area.
func TestStressManyTasksManyWorkers(t *testing.T) {
	for round := 0; round < 20; round++ {
		n := 1 + (round*37)%400
		workers := 1 + (round*13)%32
		failAt := -1
		if round%3 == 0 {
			failAt = (round * 7) % n
		}
		var sum atomic.Int64
		err := ForEach(context.Background(), n, workers, func(_ context.Context, i int) error {
			sum.Add(int64(i))
			switch {
			case i == failAt && round%6 == 0:
				panic("stress panic")
			case i == failAt:
				return errors.New("stress error")
			}
			return nil
		})
		if failAt == -1 {
			if err != nil {
				t.Fatalf("round %d: unexpected error %v", round, err)
			}
			if want := int64(n*(n-1)) / 2; sum.Load() != want {
				t.Fatalf("round %d: sum = %d, want %d", round, sum.Load(), want)
			}
		} else if err == nil {
			t.Fatalf("round %d: injected failure not reported", round)
		}
	}
}

// TestMapDiscardsPartialResultsOnError pins the contract that a failed
// Map returns no results rather than a half-filled slice.
func TestMapDiscardsPartialResultsOnError(t *testing.T) {
	out, err := Map(context.Background(), 100, 4, func(_ context.Context, i int) (int, error) {
		if i == 50 {
			return 0, errors.New("mid-sweep failure")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("error not propagated")
	}
	if out != nil {
		t.Errorf("partial results returned: %v", out[:5])
	}
}

func TestBudgetGreedyAcquire(t *testing.T) {
	b := NewBudget(8)
	if b.Cap() != 8 || b.InUse() != 0 {
		t.Fatalf("fresh budget: cap %d, in use %d", b.Cap(), b.InUse())
	}
	got, release, err := b.Acquire(context.Background(), 5)
	if err != nil || got != 5 {
		t.Fatalf("Acquire(5) = %d, %v", got, err)
	}
	if b.InUse() != 5 {
		t.Errorf("in use = %d, want 5", b.InUse())
	}
	// Only 3 tokens remain; a request for 6 gets them all.
	got2, release2, err := b.Acquire(context.Background(), 6)
	if err != nil || got2 != 3 {
		t.Fatalf("Acquire(6) under load = %d, %v, want 3", got2, err)
	}
	release()
	release()
	release2()
	if b.InUse() != 0 {
		t.Errorf("after idempotent releases: in use = %d, want 0", b.InUse())
	}
}

func TestBudgetFullRequestAndCancellation(t *testing.T) {
	b := NewBudget(4)
	// want < 1 claims the whole budget.
	got, release, err := b.Acquire(context.Background(), 0)
	if err != nil || got != 4 {
		t.Fatalf("Acquire(0) = %d, %v, want full budget", got, err)
	}
	// A second caller blocks until cancelled: no token is free.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := b.Acquire(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Acquire on empty budget: err = %v, want deadline exceeded", err)
	}
	release()
	// After release the budget is whole again.
	if got, rel, err := b.Acquire(context.Background(), 4); err != nil || got != 4 {
		t.Errorf("post-release Acquire = %d, %v", got, err)
	} else {
		rel()
	}
}

// TestBudgetConcurrentHolders hammers one budget from many goroutines
// and checks the token invariant: grants are in [1, want] and the
// budget refills exactly.
func TestBudgetConcurrentHolders(t *testing.T) {
	b := NewBudget(6)
	var peak atomic.Int64
	const holders = 64
	done := make(chan struct{}, holders)
	for g := 0; g < holders; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			got, release, err := b.Acquire(context.Background(), 3)
			if err != nil {
				t.Errorf("Acquire: %v", err)
				return
			}
			if got < 1 || got > 3 {
				t.Errorf("granted %d, want 1..3", got)
			}
			if u := int64(b.InUse()); u > peak.Load() {
				peak.Store(u)
			}
			time.Sleep(time.Millisecond)
			release()
		}()
	}
	for g := 0; g < holders; g++ {
		<-done
	}
	if b.InUse() != 0 {
		t.Errorf("tokens leaked: %d still in use", b.InUse())
	}
	if peak.Load() > 6 {
		t.Errorf("budget oversubscribed: peak %d > 6", peak.Load())
	}
}

// TestBudgetWaiterGetsWholeRelease: a caller blocked on an exhausted
// budget wakes to the whole of the release that freed it. Release once
// returned tokens one channel send at a time, and each waiter woken by
// a send greedily claimed only the tokens that had arrived — the cause
// of a flaky partial grant in the server's shared-budget test. With two
// waiters blocked when the budget comes back, the first sends went one
// to each of them, so neither could ever hold the full budget; now the
// first to claim takes it all and the other waits for its release.
func TestBudgetWaiterGetsWholeRelease(t *testing.T) {
	const capacity, waiters, rounds = 64, 2, 50
	b := NewBudget(capacity)
	for r := 0; r < rounds; r++ {
		got, release, err := b.Acquire(context.Background(), 0)
		if err != nil || got != capacity {
			t.Fatalf("round %d: Acquire(0) = %d, %v, want the full budget", r, got, err)
		}
		granted := make(chan int, waiters)
		for w := 0; w < waiters; w++ {
			go func() {
				g, rel, err := b.Acquire(context.Background(), 0)
				if err != nil {
					t.Errorf("waiter Acquire: %v", err)
					granted <- 0
					return
				}
				granted <- g
				rel()
			}()
		}
		// Let both waiters block first: the old interleaving needs
		// them queued on the release, while the current budget grants
		// in full however late they arrive.
		time.Sleep(time.Millisecond)
		release()
		for w := 0; w < waiters; w++ {
			if g := <-granted; g != capacity {
				t.Fatalf("round %d: waiter granted %d workers after a full release, want %d", r, g, capacity)
			}
		}
	}
	if b.InUse() != 0 {
		t.Errorf("tokens leaked: %d still in use", b.InUse())
	}
}
