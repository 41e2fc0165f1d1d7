// Package parallel is the deterministic execution engine behind every
// sweep in the repository: a bounded worker pool with context
// cancellation, first-error propagation, panic containment, and ordered
// result collection.
//
// The pool makes one promise the measurement pipeline depends on: for a
// task function whose per-index behaviour does not depend on execution
// order (each task derives its own random stream from its index — see
// stats.DeriveSeed), the collected results are identical at any worker
// count. Workers change wall-clock time, never bytes. Running with
// workers = 1 executes tasks in index order on the calling goroutine,
// reproducing a plain loop exactly.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// Workers resolves a worker-count request: values below 1 mean "one
// worker per available CPU" (GOMAXPROCS), anything else is returned
// unchanged. Flags pass their value straight through this so 0 can be
// the documented "use all cores" default.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// PanicError wraps a panic recovered from a pool task so that one
// misbehaving task fails the batch like an error instead of killing the
// process with goroutine stacks from unrelated workers.
type PanicError struct {
	// Index is the task index that panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// ForEach runs fn(ctx, i) for every i in [0, n) on at most workers
// goroutines (Workers semantics: < 1 means GOMAXPROCS) and waits for
// completion. The first failure — lowest task index among the errors
// actually observed — cancels the context handed to the remaining
// tasks, and tasks not yet started are skipped. A task panic is
// recovered into a *PanicError and treated as a failure. With
// workers = 1 tasks run in index order on the calling goroutine and
// execution stops at the first error, exactly like a hand-written loop.
//
// When ctx carries a trace.Tracer, every task is wrapped in a
// "parallel.task" span whose duration is the task's run time and whose
// queue_wait_us tag is the time the task spent waiting for a worker
// (measured from batch submission) — the queue-wait versus run-time
// attribution the observability runbook builds on. Without a tracer
// the wrapping costs one context lookup for the whole batch.
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if tr := trace.FromContext(ctx); tr != nil {
		submit := tr.Now()
		inner := fn
		fn = func(ctx context.Context, i int) error {
			wait := tr.Now() - submit
			ctx, sp := trace.Start(ctx, "parallel.task")
			sp.Tag("index", i).Tag("queue_wait_us", wait.Microseconds())
			defer sp.End()
			return inner(ctx, i)
		}
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := runTask(ctx, i, fn); err != nil {
				return err
			}
		}
		return nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || cctx.Err() != nil {
					return
				}
				if err := runTask(cctx, i, fn); err != nil {
					errs[i] = err
					failed.Store(true)
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	return ctx.Err()
}

// runTask invokes one task with panic containment.
func runTask(ctx context.Context, i int, fn func(context.Context, int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			err = &PanicError{Index: i, Value: r, Stack: buf}
		}
	}()
	return fn(ctx, i)
}

// Budget is a global worker budget shared by independent callers of the
// pool: a counting semaphore over worker tokens. A long-lived service
// that fans out one RunParallel per request uses a Budget so that N
// concurrent requests share one machine-wide worker count instead of
// oversubscribing N×GOMAXPROCS goroutines.
//
// Acquire hands out between 1 and the requested number of tokens, so a
// caller always makes progress even under full load; because the
// pipeline's outputs are worker-count invariant (see the package
// comment), a smaller grant changes latency, never bytes.
type Budget struct {
	capacity int
	mu       sync.Mutex
	free     int
	// freed is closed, and replaced, whenever a release returns tokens,
	// waking every blocked Acquire to retry its claim.
	freed chan struct{}
}

// NewBudget returns a budget of n worker tokens. n follows Workers
// semantics: values below 1 mean one token per available CPU.
func NewBudget(n int) *Budget {
	n = Workers(n)
	return &Budget{capacity: n, free: n, freed: make(chan struct{})}
}

// Cap returns the budget's total token count.
func (b *Budget) Cap() int { return b.capacity }

// InUse returns the number of tokens currently held by callers.
func (b *Budget) InUse() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.capacity - b.free
}

// Acquire blocks until at least one worker token is free (or ctx is
// done), then greedily claims up to want tokens without further
// blocking. want < 1 or want > Cap() requests the full budget. It
// returns the number of tokens granted (>= 1) and a release function
// that must be called exactly once when the work is finished; calling
// it more than once is a no-op. A release returns all of its tokens at
// once, so a waiter it wakes can claim every one of them.
func (b *Budget) Acquire(ctx context.Context, want int) (int, func(), error) {
	if want < 1 || want > b.capacity {
		want = b.capacity
	}
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		b.mu.Lock()
		if b.free > 0 {
			granted := min(want, b.free)
			b.free -= granted
			b.mu.Unlock()
			var once sync.Once
			return granted, func() { once.Do(func() { b.release(granted) }) }, nil
		}
		freed := b.freed
		b.mu.Unlock()
		select {
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		case <-freed:
		}
	}
}

// release returns n tokens and wakes every waiter.
func (b *Budget) release(n int) {
	b.mu.Lock()
	b.free += n
	close(b.freed)
	b.freed = make(chan struct{})
	b.mu.Unlock()
}

// Map runs fn for every index in [0, n) under ForEach's scheduling
// rules and collects the results in index order, so the output slice is
// independent of worker count and interleaving. On error the partial
// results are discarded and the first failure is returned.
func Map[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, n, workers, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
