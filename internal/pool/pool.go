// Package pool is the one work-distribution primitive the simulator's
// parallel loops share: a fixed set of goroutines claims item indexes
// off an atomic counter. The frame- and tile-parallel timing drivers,
// frame-parallel functional characterization and the chunked k-means
// steps all run on it. Items are independent and each writes only its
// own output slot, so results never depend on which worker ran which
// item.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Run claims the items of [0, n) across `workers` goroutines, each
// running the per-worker fn built by setup(w). A failed worker (setup
// error, or a panic out of fn converted to an error) raises an abort
// flag every worker checks in its claim loop, so the pool stops
// promptly instead of draining the remaining items; cancelling ctx
// raises the same flag (with ctx.Err() as the pool error), so
// cancellation is honored at the next claim — never mid-item. The
// returned failed slice marks which workers did not finish cleanly —
// their side effects (e.g. a local obs registry) may be torn mid-item
// and must not be merged. A worker stopped by cancellation is NOT
// marked failed: it completed its last item before observing the flag.
//
// workers <= 0 defaults to GOMAXPROCS; workers is clamped to n. n <= 0
// runs nothing and returns only ctx's current error, so degenerate
// pools cannot spin up goroutines or index out of range.
func Run(ctx context.Context, workers, n int, setup func(w int) (fn func(i int), err error)) (failed []bool, firstErr error) {
	workers = Workers(workers, n)
	if n <= 0 {
		return nil, ctx.Err()
	}
	failed = make([]bool, workers)
	var (
		next    atomic.Int64
		abort   atomic.Bool
		errOnce sync.Once
		wg      sync.WaitGroup
	)
	done := ctx.Done()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fail := func(err error) {
				failed[w] = true
				errOnce.Do(func() { firstErr = err })
				abort.Store(true)
			}
			defer func() {
				if r := recover(); r != nil {
					fail(fmt.Errorf("pool: worker %d: %v", w, r))
				}
			}()
			fn, err := setup(w)
			if err != nil {
				fail(err)
				return
			}
			for !abort.Load() {
				if done != nil {
					select {
					case <-done:
						// Cancellation is clean: no item is torn, so the
						// worker is not marked failed, but the pool must
						// report why it stopped short.
						errOnce.Do(func() { firstErr = ctx.Err() })
						abort.Store(true)
						return
					default:
					}
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}(w)
	}
	wg.Wait()
	return failed, firstErr
}

// Workers is the worker count Run uses for a request of `workers` over
// n items: GOMAXPROCS when workers <= 0, clamped to [0, n].
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(min(workers, n), 0)
}

// Each runs fn(i) for every i in [0, n) on GOMAXPROCS workers and
// re-raises the first worker panic on the calling goroutine after the
// join. It is the form for loops with no error path and no
// cancellation, whose items only fail by bug.
func Each(n int, fn func(i int)) {
	if _, err := Run(context.Background(), 0, n, func(int) (func(int), error) { return fn, nil }); err != nil {
		panic(err)
	}
}
