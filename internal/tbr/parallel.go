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

// SimulateFramesParallel simulates the given frame subset across
// `workers` goroutines (0 = GOMAXPROCS), returning stats in the same
// order as frames. Like SimulateAllParallel it requires frame isolation
// (FlushCachesPerFrame).
func SimulateFramesParallel(cfg Config, trace *gltrace.Trace, frames []int, workers int) ([]FrameStats, error) {
	return SimulateFramesParallelCtx(context.Background(), cfg, trace, frames, workers)
}

// SimulateFramesParallelCtx is SimulateFramesParallel honoring a
// context: cancellation (or deadline expiry) stops every worker at its
// next claim and returns ctx's error. Results are all-or-nothing — a
// cancelled run returns no stats, exactly like a failed one.
func SimulateFramesParallelCtx(ctx context.Context, cfg Config, trace *gltrace.Trace, frames []int, workers int) ([]FrameStats, error) {
	if !cfg.FlushCachesPerFrame {
		return nil, fmt.Errorf("tbr: parallel simulation requires FlushCachesPerFrame (frame isolation)")
	}
	for _, f := range frames {
		if f < 0 || f >= trace.NumFrames() {
			return nil, fmt.Errorf("tbr: frame %d out of range [0,%d)", f, trace.NumFrames())
		}
	}
	workers = pool.Workers(workers, len(frames))
	if len(frames) == 0 {
		return nil, ctx.Err()
	}
	out := make([]FrameStats, len(frames))
	// A single worker skips the pool — unless a checker is attached, in
	// which case the pool's recover is what converts a failed CheckFrame
	// (a panic out of SimulateFrame) into an error.
	if workers <= 1 && cfg.Check == nil {
		sim, err := New(cfg, trace)
		if err != nil {
			return nil, err
		}
		for i, f := range frames {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out[i] = sim.SimulateFrame(f)
		}
		return out, nil
	}
	err := runPool(ctx, cfg, trace, workers, len(frames), func(sim *Simulator, i int) {
		out[i] = sim.SimulateFrame(frames[i])
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SimulateAllParallel simulates every frame of the trace across
// `workers` goroutines (0 = GOMAXPROCS), each with its own Simulator
// instance. It requires FlushCachesPerFrame: frame isolation makes the
// result bit-identical to the sequential SimulateAll regardless of how
// frames are distributed over workers — verified by tests. progress, if
// non-nil, is called once per completed frame (from worker goroutines;
// it must be safe for concurrent use).
func SimulateAllParallel(cfg Config, trace *gltrace.Trace, workers int, progress func(frame int)) ([]FrameStats, error) {
	return SimulateAllParallelCtx(context.Background(), cfg, trace, workers, progress)
}

// SimulateAllParallelCtx is SimulateAllParallel honoring a context:
// cancellation stops every worker at its next frame claim and returns
// ctx's error instead of stats.
func SimulateAllParallelCtx(ctx context.Context, cfg Config, trace *gltrace.Trace, workers int, progress func(frame int)) ([]FrameStats, error) {
	if !cfg.FlushCachesPerFrame {
		return nil, fmt.Errorf("tbr: parallel simulation requires FlushCachesPerFrame (frame isolation)")
	}
	n := trace.NumFrames()
	workers = pool.Workers(workers, n)
	if n == 0 {
		return nil, ctx.Err()
	}
	// See SimulateFramesParallelCtx for why a checker disables the
	// serial fast path.
	if workers <= 1 && cfg.Check == nil {
		sim, err := New(cfg, trace)
		if err != nil {
			return nil, err
		}
		out := make([]FrameStats, 0, n)
		for f := 0; f < n; f++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out = append(out, sim.SimulateFrame(f))
			if progress != nil {
				progress(f)
			}
		}
		return out, nil
	}

	out := make([]FrameStats, n)
	err := runPool(ctx, cfg, trace, workers, n, func(sim *Simulator, f int) {
		out[f] = sim.SimulateFrame(f)
		if progress != nil {
			progress(f)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
