package funcsim

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/gltrace"
	"repro/internal/obs"
	"repro/internal/workload"
)

// serialRun is the reference characterization: one Streamer profiling
// frames in order with ProfileAt, recording the obs counters inline.
func serialRun(t *testing.T, tr *gltrace.Trace, reg *obs.Registry) *Result {
	t.Helper()
	st, err := NewStreamer(tr)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{Trace: tr.Name, Profiles: make([]FrameProfile, tr.NumFrames())}
	res.VSStatic, res.FSStatic = st.Static()
	for f := range res.Profiles {
		if err := st.ProfileAt(&res.Profiles[f], f); err != nil {
			t.Fatal(err)
		}
		reg.Counter("funcsim.draws").Add(uint64(tr.Frames[f].DrawCount()))
		reg.Counter("funcsim.frames").Inc()
		reg.Counter("funcsim.fragments").Add(res.Profiles[f].Fragments)
		reg.Histogram("funcsim.frame_fragments").Observe(res.Profiles[f].Fragments)
	}
	return res
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunObsParallelMatchesSerial: frame-parallel RunObs must produce
// the byte-identical Result and obs snapshot of a serial ProfileAt loop,
// on every Table II game and at every worker count.
func TestRunObsParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, alias := range workload.Aliases() {
		tr := workload.MustGenerate(workload.Profiles[alias], workload.TestScale)
		wantReg := obs.New()
		want := mustJSON(t, serialRun(t, tr, wantReg))
		wantSnap := mustJSON(t, wantReg.Snapshot())
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			reg := obs.New()
			res, err := RunObs(tr, reg)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS=%d: %v", alias, procs, err)
			}
			if got := mustJSON(t, res); !bytes.Equal(got, want) {
				t.Fatalf("%s at GOMAXPROCS=%d: Result differs from the serial ProfileAt loop", alias, procs)
			}
			if got := mustJSON(t, reg.Snapshot()); !bytes.Equal(got, wantSnap) {
				t.Fatalf("%s at GOMAXPROCS=%d: obs snapshot differs from the serial loop:\n got %s\nwant %s", alias, procs, got, wantSnap)
			}
		}
	}
}

// TestProfileRangeMatchesProfileAt: every window ProfileRange accepts
// — a single frame, an odd size, one ending on the last frame, the
// whole trace — yields profiles byte-identical to a serial ProfileAt
// loop over the same frames, on every Table II game. Windows run back
// to back on one streamer, so its cached worker clones are reused
// across windows of different sizes. Empty and out-of-range windows
// return errors and leave dst untouched.
func TestProfileRangeMatchesProfileAt(t *testing.T) {
	for _, alias := range workload.Aliases() {
		tr := workload.MustGenerate(workload.Profiles[alias], workload.TestScale)
		n := tr.NumFrames()
		want := serialRun(t, tr, nil).Profiles
		st, err := NewStreamer(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []struct{ first, size int }{
			{n / 2, 1}, {3, 37}, {n - 10, 10}, {0, n}, {n - 1, 1}, {1, 37},
		} {
			dst := make([]FrameProfile, w.size)
			if err := st.ProfileRange(context.Background(), dst, w.first); err != nil {
				t.Fatalf("%s window [%d,+%d): %v", alias, w.first, w.size, err)
			}
			got, ref := mustJSON(t, dst), mustJSON(t, want[w.first:w.first+w.size])
			if !bytes.Equal(got, ref) {
				t.Fatalf("%s window [%d,+%d) differs from the serial ProfileAt loop", alias, w.first, w.size)
			}
		}

		sentinel := []FrameProfile{{Frame: -7, Checksum: 42}, {Frame: -8}, {Frame: -9}}
		for _, w := range []struct{ first, size int }{
			{0, 0}, {-1, 1}, {n, 1}, {n - 2, 3}, {-3, 3},
		} {
			dst := make([]FrameProfile, w.size)
			copy(dst, sentinel)
			if err := st.ProfileRange(context.Background(), dst, w.first); err == nil {
				t.Fatalf("%s window [%d,+%d) of %d frames: no error", alias, w.first, w.size, n)
			}
			if !reflect.DeepEqual(dst, sentinel[:w.size]) {
				t.Fatalf("%s rejected window [%d,+%d) wrote dst", alias, w.first, w.size)
			}
		}
	}
}

// allocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1) pin, so
// ProfileRange's pool runs more than one worker while it is measured.
// It returns the smallest per-call integer mean of five batches of runs
// calls of f, after one warm-up call. Other goroutines only ever add
// allocations — a pool goroutine that has not yet exited when the next
// call starts makes the runtime allocate a fresh one — so the minimum
// filters that noise while an allocation made on every call survives.
func allocsPerRun(runs int, f func()) uint64 {
	f()
	best := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.Mallocs-before.Mallocs)/uint64(runs))
	}
	return best
}

// TestProfileAtSteadyStateAllocatesNothing: once the streamer's scratch
// has grown to the trace's largest draw, re-profiling frames into an
// already-sized FrameProfile allocates nothing. The windowed form
// reuses its cached clones the same way: a repeated ProfileRange into an
// already-sized dst allocates only the pool's constant per-call cost,
// the same for a 64-frame window as for an 8-frame one, at a fixed
// worker count.
func TestProfileAtSteadyStateAllocatesNothing(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["bbr1"], workload.TestScale)
	st, err := NewStreamer(tr)
	if err != nil {
		t.Fatal(err)
	}
	var prof FrameProfile
	profileAll := func() {
		for f := range tr.Frames {
			if err := st.ProfileAt(&prof, f); err != nil {
				t.Fatal(err)
			}
		}
	}
	profileAll() // grow the scratch and size the profile
	if allocs := testing.AllocsPerRun(5, profileAll); allocs != 0 {
		t.Fatalf("re-profiling %d frames allocated %.1f times per pass, want 0", tr.NumFrames(), allocs)
	}

	// Four workers on any host, so both windows use the same pool shape.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	// Walk the whole trace a few times first: which clone claims which
	// frame varies, so this grows every clone's scratch towards the
	// largest draw. A straggling growth costs a few allocations once,
	// which allocsPerRun's integer mean over 10 calls absorbs.
	dst8, dst64 := make([]FrameProfile, 8), make([]FrameProfile, 64)
	for range 3 {
		for first := 0; first+len(dst8) <= tr.NumFrames(); first += len(dst8) {
			if err := st.ProfileRange(context.Background(), dst8, first); err != nil {
				t.Fatal(err)
			}
		}
	}
	one := func(dst []FrameProfile) func() {
		return func() {
			if err := st.ProfileRange(context.Background(), dst, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	a8, a64 := allocsPerRun(10, one(dst8)), allocsPerRun(10, one(dst64))
	if a8 != a64 {
		t.Fatalf("a repeated ProfileRange allocated %d times for 8 frames but %d for 64: allocation scales with the window", a8, a64)
	}
}
