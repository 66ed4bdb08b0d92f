package funcsim

import (
	"bytes"
	"encoding/json"
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

// TestProfileAtSteadyStateAllocatesNothing: once the streamer's scratch
// has grown to the trace's largest draw, re-profiling frames into an
// already-sized FrameProfile allocates nothing.
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
}
