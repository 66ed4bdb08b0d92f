package tbr

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// TestParallelAbortsPromptlyOnWorkerFailure exercises the early-exit
// path: a worker failure must raise the abort flag, and because workers
// check it in the claim loop, the pool must stop well before draining
// the item list.
func TestParallelAbortsPromptlyOnWorkerFailure(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["hcr"],
		workload.Scale{Width: 96, Height: 48, FrameDivisor: 100, DetailDivisor: 2})

	const n = 64
	frames := make([]int, n)

	var claimed atomic.Int64
	setTestWorkerHook(func(item int) {
		if claimed.Add(1) == 3 {
			panic("injected failure")
		}
	})
	defer setTestWorkerHook(nil)

	_, err := SimulateFramesParallelCtx(context.Background(), DefaultConfig(), tr, frames, 4)
	if err == nil {
		t.Fatal("pool swallowed the worker failure")
	}
	if !strings.Contains(err.Error(), "worker") || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("error lost the failure cause: %v", err)
	}
	if got := claimed.Load(); got >= n {
		t.Fatalf("pool drained all %d items (%d claims) despite the failure", n, got)
	}
}

// TestRunPoolSkipsFailedWorkerRegistries: a worker that panics after
// claiming an item leaves its local obs registry partially populated
// (whatever it recorded before dying, without the rest of the item's
// data). The post-join merge must drop such registries so an aborted
// run cannot report torn counters — only cleanly finished workers
// contribute.
func TestRunPoolSkipsFailedWorkerRegistries(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["hcr"],
		workload.Scale{Width: 96, Height: 48, FrameDivisor: 100, DetailDivisor: 2})

	parent := obs.New()
	cfg := DefaultConfig()
	cfg.Obs = parent

	err := runPool(context.Background(), cfg, tr, 4, 64, func(sim *Simulator, i int) {
		if i == 5 {
			// Simulate a worker dying mid-item: partial data has
			// already landed in its worker-local registry (sim.obs is
			// the local the pool created for this worker) when the
			// panic unwinds.
			sim.obs.Counter("test.torn").Inc()
			panic("die mid-item")
		}
		sim.SimulateFrame(0)
	})
	if err == nil {
		t.Fatal("pool swallowed the worker failure")
	}
	if !strings.Contains(err.Error(), "die mid-item") {
		t.Fatalf("error lost the failure cause: %v", err)
	}
	snap := parent.Snapshot()
	if _, ok := snap.Counters["test.torn"]; ok {
		t.Fatal("merge included the failed worker's torn registry")
	}
	// The surviving workers' registries still merge: every frame
	// counted in the parent must carry its full span set.
	if frames := snap.Counters["tbr.frames"]; frames > 0 {
		var frameSpans uint64
		for _, e := range snap.Events {
			if e.Name == "frame" {
				frameSpans++
			}
		}
		if frameSpans != frames {
			t.Fatalf("parent registry torn after merge: %d frames vs %d frame spans", frames, frameSpans)
		}
	}
}

// TestParallelFirstErrorWins: with several failing workers only one
// error must surface, and the result slice must be nil.
func TestParallelFirstErrorWins(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["hcr"],
		workload.Scale{Width: 96, Height: 48, FrameDivisor: 100, DetailDivisor: 2})

	frames := make([]int, 16)
	setTestWorkerHook(func(item int) { panic("boom") })
	defer setTestWorkerHook(nil)

	out, err := SimulateFramesParallelCtx(context.Background(), DefaultConfig(), tr, frames, 4)
	if err == nil {
		t.Fatal("no error surfaced")
	}
	if out != nil {
		t.Fatalf("got partial results alongside the error: %d frames", len(out))
	}
}

// TestSimulateFramesParallelCtxCancelled: a pre-cancelled context must
// return ctx.Err() and no stats from both drivers.
func TestSimulateFramesParallelCtxCancelled(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["hcr"],
		workload.Scale{Width: 96, Height: 48, FrameDivisor: 100, DetailDivisor: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if out, err := SimulateFramesParallelCtx(ctx, DefaultConfig(), tr, []int{0, 0, 0}, 2); !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("SimulateFramesParallelCtx = (%v, %v), want (nil, Canceled)", out, err)
	}
	if out, err := SimulateFramesParallelCtx(ctx, DefaultConfig(), tr, []int{0}, 1); !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("serial SimulateFramesParallelCtx = (%v, %v), want (nil, Canceled)", out, err)
	}
	if out, err := SimulateAllParallelCtx(ctx, DefaultConfig(), tr, 2, nil); !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("SimulateAllParallelCtx = (%v, %v), want (nil, Canceled)", out, err)
	}
}
