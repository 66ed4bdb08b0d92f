package tbr

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/gltrace"
	"repro/internal/obs"
	"repro/internal/pool"
)

// testWorkerHook, when non-nil, is called by pool workers before each
// claimed item. Test-only: it lets tests inject failures mid-run to
// exercise the abort path. It is an atomic pointer because pool worker
// goroutines read it while tests in other packages' test binaries may
// install or clear it around pools that are still draining.
var testWorkerHook atomic.Pointer[func(item int)]

// setTestWorkerHook installs (or, with nil, clears) the worker hook.
func setTestWorkerHook(h func(item int)) {
	if h == nil {
		testWorkerHook.Store(nil)
		return
	}
	testWorkerHook.Store(&h)
}

// claimPool runs the shared claim loop (pool.Run) with the test worker
// hook spliced in front of every claimed item, so tests can inject
// failures into the frame and tile pools alike.
func claimPool(ctx context.Context, workers, n int, setup func(w int) (fn func(i int), err error)) (failed []bool, firstErr error) {
	return pool.Run(ctx, workers, n, func(w int) (func(i int), error) {
		fn, err := setup(w)
		if err != nil {
			return nil, err
		}
		return func(i int) {
			if h := testWorkerHook.Load(); h != nil {
				(*h)(i)
			}
			fn(i)
		}, nil
	})
}

// runPool runs fn(sim, i) for every i in [0, n) across `workers`
// goroutines, each with its own Simulator, via claimPool.
//
// When cfg.Obs is enabled each worker records into a local registry;
// the locals of cleanly finished workers are merged into cfg.Obs in
// worker order after the join, so instrumentation is race-free by
// construction and — because counters and histograms are additive and
// snapshot events sort canonically — deterministic regardless of how
// items were distributed. A worker that failed mid-item leaves its
// local registry partially populated (e.g. a frame's counters without
// its spans); merging it would let an aborted run report torn numbers,
// so failed workers' registries are dropped.
func runPool(ctx context.Context, cfg Config, trace *gltrace.Trace, workers, n int, fn func(sim *Simulator, i int)) error {
	parent := cfg.Obs
	locals := make([]*obs.Registry, pool.Workers(workers, n))
	failed, firstErr := claimPool(ctx, workers, n, func(w int) (func(i int), error) {
		wcfg := cfg
		if parent.Enabled() {
			locals[w] = parent.NewLocal()
			wcfg.Obs = locals[w]
		}
		sim, err := New(wcfg, trace)
		if err != nil {
			return nil, err
		}
		return func(i int) { fn(sim, i) }, nil
	})
	for w, l := range locals {
		if w < len(failed) && failed[w] {
			continue
		}
		parent.Merge(l)
	}
	return firstErr
}

// SimulateFramesParallelCtx simulates the given frames and returns
// their stats in the same order. Whether frames may run concurrently is
// decided here, from cfg.FlushCachesPerFrame alone: with frame
// isolation they fan out across `workers` goroutines (0 = GOMAXPROCS),
// each with its own Simulator, and the result is bit-identical to a
// sequential run however frames are distributed — verified by tests.
// Without it every frame inherits the caches its predecessor left, so
// one Simulator runs the frames in the order given, exactly as an
// in-order SimulateFrame loop would. Cancellation (or deadline expiry)
// stops every worker at its next claim and returns ctx's error. Results
// are all-or-nothing — a cancelled run returns no stats, exactly like a
// failed one.
func SimulateFramesParallelCtx(ctx context.Context, cfg Config, trace *gltrace.Trace, frames []int, workers int) ([]FrameStats, error) {
	return simulateFrames(ctx, cfg, trace, frames, workers, nil)
}

// SimulateAllParallelCtx is SimulateFramesParallelCtx over every frame
// of the trace, in order. progress, if non-nil, is called once per
// completed frame (from worker goroutines when frames run in parallel;
// it must be safe for concurrent use).
func SimulateAllParallelCtx(ctx context.Context, cfg Config, trace *gltrace.Trace, workers int, progress func(frame int)) ([]FrameStats, error) {
	frames := make([]int, trace.NumFrames())
	for f := range frames {
		frames[f] = f
	}
	return simulateFrames(ctx, cfg, trace, frames, workers, progress)
}

// simulateFrames is the one frame driver behind both entry points:
// out[i] = SimulateFrame(frames[i]).
func simulateFrames(ctx context.Context, cfg Config, trace *gltrace.Trace, frames []int, workers int, progress func(frame int)) ([]FrameStats, error) {
	for _, f := range frames {
		if f < 0 || f >= trace.NumFrames() {
			return nil, fmt.Errorf("tbr: frame %d out of range [0,%d)", f, trace.NumFrames())
		}
	}
	if !cfg.FlushCachesPerFrame {
		// Warm caches carry state across frames: the only correct
		// schedule is one Simulator over the frames in order, which is
		// what a single pool worker claiming items in turn does.
		workers = 1
	}
	workers = pool.Workers(workers, len(frames))
	if len(frames) == 0 {
		return nil, ctx.Err()
	}
	out := make([]FrameStats, len(frames))
	step := func(sim *Simulator, i int) {
		out[i] = sim.SimulateFrame(frames[i])
		if progress != nil {
			progress(frames[i])
		}
	}
	// A single worker skips the pool — unless a checker is attached, in
	// which case the pool's recover is what converts a failed CheckFrame
	// (a panic out of SimulateFrame) into an error.
	if workers <= 1 && cfg.Check == nil {
		sim, err := New(cfg, trace)
		if err != nil {
			return nil, err
		}
		for i := range frames {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			step(sim, i)
		}
		return out, nil
	}
	if err := runPool(ctx, cfg, trace, workers, len(frames), step); err != nil {
		return nil, err
	}
	return out, nil
}
