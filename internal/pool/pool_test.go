package pool

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRunAbortsPromptlyOnPanic: a panicking item must surface as the
// pool's error, mark its worker failed, and stop the other workers at
// their next claim instead of draining every item.
func TestRunAbortsPromptlyOnPanic(t *testing.T) {
	const n = 1 << 16
	var ran atomic.Int64
	failed, err := Run(context.Background(), 4, n, func(w int) (func(i int), error) {
		return func(i int) {
			if ran.Add(1) == 3 {
				panic("injected failure")
			}
		}, nil
	})
	if err == nil || !strings.Contains(err.Error(), "worker") || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("err = %v, want the worker's panic", err)
	}
	if got := ran.Load(); got >= n {
		t.Fatalf("pool drained all %d items despite the failure", n)
	}
	nFailed := 0
	for _, f := range failed {
		if f {
			nFailed++
		}
	}
	if nFailed != 1 {
		t.Fatalf("%d workers marked failed, want exactly the panicking one", nFailed)
	}
}

// TestRunSetupErrorFailsWorker: a setup error is the pool's error and
// marks that worker failed.
func TestRunSetupErrorFailsWorker(t *testing.T) {
	boom := errors.New("setup failed")
	failed, err := Run(context.Background(), 2, 8, func(w int) (func(i int), error) {
		if w == 1 {
			return nil, boom
		}
		return func(int) {}, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if !failed[1] || failed[0] {
		t.Fatalf("failed = %v, want only worker 1", failed)
	}
}

// TestRunSimultaneousFailures releases every worker into a panic at the
// same instant and checks the pool reports exactly one coherent first
// error while marking every worker failed — the contract an obs merge
// that skips failed workers, and an all-or-nothing result, depend on.
func TestRunSimultaneousFailures(t *testing.T) {
	const workers = 8
	var (
		ready sync.WaitGroup
		gate  = make(chan struct{})
	)
	ready.Add(workers)
	// Close the gate once every worker holds an item. Run blocks until
	// the join, so the release must already be running.
	go func() {
		ready.Wait()
		close(gate)
	}()
	failed, err := Run(context.Background(), workers, workers*4, func(w int) (func(i int), error) {
		return func(i int) {
			ready.Done()
			<-gate // all workers panic together
			panic("simultaneous failure")
		}, nil
	})
	if err == nil {
		t.Fatal("pool swallowed the simultaneous failures")
	}
	if !strings.Contains(err.Error(), "simultaneous failure") {
		t.Fatalf("first error lost the cause: %v", err)
	}
	for w, f := range failed {
		if !f {
			t.Errorf("worker %d not marked failed", w)
		}
	}
}

// TestRunDegenerateInputs: workers <= 0 must default rather than spin
// up nothing, and n <= 0 must run nothing without spawning goroutines
// or touching setup.
func TestRunDegenerateInputs(t *testing.T) {
	for _, n := range []int{0, -3} {
		failed, err := Run(context.Background(), 4, n, func(w int) (func(i int), error) {
			t.Fatalf("setup called for n=%d", n)
			return nil, nil
		})
		if err != nil || failed != nil {
			t.Fatalf("n=%d: got failed=%v err=%v, want empty run", n, failed, err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, 4, 0, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("n=0 on a cancelled context: err = %v, want context.Canceled", err)
	}

	var ran atomic.Int64
	failed, err := Run(context.Background(), 0, 5, func(w int) (func(i int), error) {
		return func(i int) { ran.Add(1) }, nil
	})
	if err != nil {
		t.Fatalf("workers=0: %v", err)
	}
	if got := ran.Load(); got != 5 {
		t.Fatalf("workers=0 ran %d/5 items", got)
	}
	if len(failed) == 0 || len(failed) > 5 {
		t.Fatalf("workers=0 reported %d worker slots for 5 items", len(failed))
	}
}

// TestRunContextCancellation: cancelling the context mid-run must stop
// the pool at the next claim, surface ctx's error, and NOT mark the
// cancelled workers failed (their last item completed cleanly).
func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	const n = 1 << 20 // far more items than can drain before the cancel
	failed, err := Run(ctx, 4, n, func(w int) (func(i int), error) {
		return func(i int) {
			if done.Add(1) == 8 {
				cancel()
			}
		}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := done.Load(); got >= n {
		t.Fatalf("pool drained all %d items despite cancellation", n)
	}
	for w, f := range failed {
		if f {
			t.Errorf("cancelled worker %d marked failed", w)
		}
	}
}

// TestEachRunsEveryItemOnceAndRepanics: Each covers [0, n) exactly once
// and re-raises an item's panic on the caller.
func TestEachRunsEveryItemOnceAndRepanics(t *testing.T) {
	const n = 1000
	hits := make([]atomic.Int32, n)
	Each(n, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("item %d ran %d times", i, got)
		}
	}
	Each(0, func(int) { t.Fatal("item run for n=0") })

	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(error).Error(), "bad item") {
			t.Fatalf("recovered %v, want the item's panic", r)
		}
	}()
	Each(n, func(i int) {
		if i == 7 {
			panic("bad item")
		}
	})
	t.Fatal("Each returned normally after an item panicked")
}
