package tbr_test

import (
	"bytes"
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/tbr"
	"repro/internal/workload"
)

func TestParallelMatchesSequentialExactly(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["hcr"], workload.TestScale)
	cfg := tbr.DefaultConfig()

	sim, err := tbr.New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	sequential := sim.SimulateAll(nil)

	parallel, err := tbr.SimulateAllParallelCtx(context.Background(), cfg, tr, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != len(sequential) {
		t.Fatalf("lengths differ: %d vs %d", len(parallel), len(sequential))
	}
	for i := range sequential {
		if sequential[i] != parallel[i] {
			t.Fatalf("frame %d differs between sequential and parallel runs", i)
		}
	}
}

func TestParallelProgressCalledPerFrame(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["jjo"],
		workload.Scale{Width: 96, Height: 48, FrameDivisor: 100, DetailDivisor: 2})
	var calls atomic.Int64
	out, err := tbr.SimulateAllParallelCtx(context.Background(), tbr.DefaultConfig(), tr, 3, func(int) { calls.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if int(calls.Load()) != len(out) {
		t.Fatalf("progress calls %d, frames %d", calls.Load(), len(out))
	}
}

// passCheck is a FrameChecker that accepts every frame. Attaching it
// routes a single-worker run through the pool instead of the serial
// shortcut.
type passCheck struct{}

func (passCheck) CheckFrame(*tbr.FrameStats) error { return nil }

// TestGoldenDeterminismWarmCachesInOrder: without frame isolation the
// frame drivers must run one simulator over the frames in the order
// given, so the whole trace equals (*Simulator).SimulateAll and a frame
// subset equals an in-order SimulateFrame loop on one simulator — stats
// and obs snapshots byte for byte, at any requested worker count and
// GOMAXPROCS, with and without a checker attached.
func TestGoldenDeterminismWarmCachesInOrder(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["hcr"], workload.TestScale)
	warm := func(check tbr.FrameChecker) tbr.Config {
		cfg := tbr.DefaultConfig()
		cfg.FlushCachesPerFrame = false
		cfg.Obs = obs.New()
		cfg.Check = check
		return cfg
	}
	frames := []int{7, 2, 11, 3, 3, 0}

	ref := warm(nil)
	sim, err := tbr.New(ref, tr)
	if err != nil {
		t.Fatal(err)
	}
	wantAll := mustJSON(t, sim.SimulateAll(nil), ref.Obs.Snapshot())
	ref = warm(nil)
	if sim, err = tbr.New(ref, tr); err != nil {
		t.Fatal(err)
	}
	var subset []tbr.FrameStats
	for _, f := range frames {
		subset = append(subset, sim.SimulateFrame(f))
	}
	wantSubset := mustJSON(t, subset, ref.Obs.Snapshot())

	for _, check := range []tbr.FrameChecker{nil, passCheck{}} {
		for _, workers := range []int{0, 1, 4} {
			cfg := warm(check)
			all, err := tbr.SimulateAllParallelCtx(context.Background(), cfg, tr, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := mustJSON(t, all, cfg.Obs.Snapshot()); !bytes.Equal(got, wantAll) {
				t.Fatalf("check=%v workers=%d: SimulateAllParallelCtx differs from SimulateAll", check != nil, workers)
			}
			cfg = warm(check)
			sub, err := tbr.SimulateFramesParallelCtx(context.Background(), cfg, tr, frames, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got := mustJSON(t, sub, cfg.Obs.Snapshot()); !bytes.Equal(got, wantSubset) {
				t.Fatalf("check=%v workers=%d: SimulateFramesParallelCtx differs from an in-order SimulateFrame loop", check != nil, workers)
			}
		}
	}
}

func mustJSON(t *testing.T, stats []tbr.FrameStats, snap *obs.Snapshot) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Stats []tbr.FrameStats
		Snap  *obs.Snapshot
	}{stats, snap})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestParallelSingleWorkerFallback(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["hcr"],
		workload.Scale{Width: 96, Height: 48, FrameDivisor: 100, DetailDivisor: 2})
	out, err := tbr.SimulateAllParallelCtx(context.Background(), tbr.DefaultConfig(), tr, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != tr.NumFrames() {
		t.Fatalf("frames = %d", len(out))
	}
}
