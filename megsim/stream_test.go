package megsim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/serve"
	"repro/megsim"
)

// TestSampleStreamingHealthy: the streaming flow over a healthy trace
// produces a real selection with a reduction factor, an estimate, and
// no degradation.
func TestSampleStreamingHealthy(t *testing.T) {
	tr := megsim.MustGenerateBenchmark("hcr", testScale())
	srun, err := megsim.SampleStreaming(context.Background(), tr, megsim.StreamingOptions{}, megsim.DefaultGPUConfig())
	if err != nil {
		t.Fatal(err)
	}
	if srun.Degraded() {
		t.Fatalf("healthy streaming run degraded: %+v", srun.Degradation)
	}
	if len(srun.Representatives()) == 0 || srun.ReductionFactor() <= 1 {
		t.Fatalf("selection: reps=%d reduction=%v", len(srun.Representatives()), srun.ReductionFactor())
	}
	if srun.Estimate.Cycles == 0 {
		t.Fatal("estimate has zero cycles")
	}
	if srun.Selection.Frames != tr.NumFrames() {
		t.Fatalf("selection covers %d frames, trace has %d", srun.Selection.Frames, tr.NumFrames())
	}
}

// normalizeReport zeroes the run-provenance fields that legitimately
// differ between an interrupted-then-resumed campaign and an
// uninterrupted one: wall time, the count of ingest frames skipped on
// resume, and which phase-2 records were adopted from the checkpoint.
// Every other byte of the report — selection, strata, estimates,
// coverage — must be identical.
func normalizeReport(rep *serve.CampaignReport) []byte {
	rep.SampledMillis = 0
	if rep.Streaming != nil {
		rep.Streaming.ResumedFrames = 0
	}
	if rep.Resilience != nil {
		rep.Resilience.Resumed = nil
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		panic(err)
	}
	return b
}

// TestSampleStreamingKillResume: a campaign killed mid-stream at varied
// frame indices and resumed from its checkpoint must finish with a
// report byte-identical (modulo provenance fields) to an uninterrupted
// run — same strata, same representatives, same estimate. The kill is
// modeled by truncating the stream with MaxFrames, which completes a
// checkpoint whose strata snapshot sits at exactly the kill frame.
func TestSampleStreamingKillResume(t *testing.T) {
	tr := megsim.MustGenerateBenchmark("jjo", testScale())
	gpu := megsim.DefaultGPUConfig()
	n := tr.NumFrames()

	ref, err := megsim.SampleStreaming(context.Background(), tr, megsim.StreamingOptions{}, gpu)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := normalizeReport(serve.NewStreamingCampaignReport(ref, 0))

	for _, kill := range []int{1, n / 3, 2 * n / 3} {
		ckpt := filepath.Join(t.TempDir(), "stream.ckpt")

		// Phase A: the doomed run — it gets through `kill` frames of
		// ingest (and whatever phase 2 its partial strata wanted) before
		// dying. Its checkpoint holds the strata snapshot at that frame.
		if _, err := megsim.SampleStreaming(context.Background(), tr, megsim.StreamingOptions{
			MaxFrames:  kill,
			Resilience: megsim.ResilienceConfig{CheckpointPath: ckpt},
		}, gpu); err != nil {
			t.Fatalf("kill=%d: truncated run: %v", kill, err)
		}

		// Phase B: resume over the full stream.
		res, err := megsim.SampleStreaming(context.Background(), tr, megsim.StreamingOptions{
			Resilience: megsim.ResilienceConfig{CheckpointPath: ckpt, Resume: true},
		}, gpu)
		if err != nil {
			t.Fatalf("kill=%d: resumed run: %v", kill, err)
		}
		if res.StreamResumeErr != nil {
			t.Fatalf("kill=%d: stream resume fell back: %v", kill, res.StreamResumeErr)
		}
		if res.ResumedFrames != kill {
			t.Fatalf("kill=%d: resumed %d ingest frames", kill, res.ResumedFrames)
		}

		if res.Estimate != ref.Estimate {
			t.Fatalf("kill=%d: estimate diverged:\n got %+v\nwant %+v", kill, res.Estimate, ref.Estimate)
		}
		if !reflect.DeepEqual(res.Selection, ref.Selection) {
			t.Fatalf("kill=%d: selection diverged", kill)
		}
		for _, f := range res.Representatives() {
			if res.RepresentativeStats[f] != ref.RepresentativeStats[f] {
				t.Fatalf("kill=%d: frame %d stats diverged", kill, f)
			}
		}
		if got := normalizeReport(serve.NewStreamingCampaignReport(res, 0)); !bytes.Equal(got, refBytes) {
			t.Fatalf("kill=%d: resumed report not byte-identical to uninterrupted run:\n%s\n---\n%s", kill, got, refBytes)
		}
	}
}

// TestSampleStreamingTileWorkersInvariant: the streaming estimate is
// identical at tile-workers 1 and 4 — the sharded raster stage cannot
// leak nondeterminism into the streaming flow. Runs under -race in the
// dedicated stream CI job.
func TestSampleStreamingTileWorkersInvariant(t *testing.T) {
	tr := megsim.MustGenerateBenchmark("hcr", testScale())

	runs := make([]*megsim.StreamingRun, 0, 2)
	for _, tw := range []int{1, 4} {
		gpu := megsim.DefaultGPUConfig()
		gpu.TileWorkers = tw
		srun, err := megsim.SampleStreaming(context.Background(), tr, megsim.StreamingOptions{}, gpu)
		if err != nil {
			t.Fatalf("tile-workers %d: %v", tw, err)
		}
		runs = append(runs, srun)
	}
	if runs[0].Estimate != runs[1].Estimate {
		t.Fatalf("estimate depends on tile-workers:\n tw=1 %+v\n tw=4 %+v", runs[0].Estimate, runs[1].Estimate)
	}
	if !reflect.DeepEqual(runs[0].Selection, runs[1].Selection) {
		t.Fatal("selection depends on tile-workers")
	}
}

// TestSampleStreamingEagerMatchesFinal: eagerly simulating mid-stream
// representatives (EagerEvery > 0) is a warm cache, never a different
// answer — the estimate and selection match the stream-end-only run.
func TestSampleStreamingEagerMatchesFinal(t *testing.T) {
	tr := megsim.MustGenerateBenchmark("hcr", testScale())
	gpu := megsim.DefaultGPUConfig()

	plain, err := megsim.SampleStreaming(context.Background(), tr, megsim.StreamingOptions{}, gpu)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := megsim.SampleStreaming(context.Background(), tr, megsim.StreamingOptions{EagerEvery: 7}, gpu)
	if err != nil {
		t.Fatal(err)
	}
	if eager.Estimate != plain.Estimate {
		t.Fatalf("eager estimate differs:\n got %+v\nwant %+v", eager.Estimate, plain.Estimate)
	}
	if !reflect.DeepEqual(eager.Selection, plain.Selection) {
		t.Fatal("eager selection differs")
	}
}

// TestSampleStreamingQuarantineDegrades: quarantining a streaming
// representative drives the substitution ladder end to end and is
// reported loudly.
func TestSampleStreamingQuarantineDegrades(t *testing.T) {
	tr := megsim.MustGenerateBenchmark("hcr", testScale())
	gpu := megsim.DefaultGPUConfig()

	ref, err := megsim.SampleStreaming(context.Background(), tr, megsim.StreamingOptions{}, gpu)
	if err != nil {
		t.Fatal(err)
	}
	victim := ref.Representatives()[0]

	srun, err := megsim.SampleStreaming(context.Background(), tr, megsim.StreamingOptions{
		Resilience: megsim.ResilienceConfig{Quarantine: []int{victim}},
	}, gpu)
	if err != nil {
		t.Fatal(err)
	}
	if !srun.Degraded() {
		t.Fatal("quarantined representative did not degrade the run")
	}
	found := false
	for _, s := range srun.Degradation.Substitutions {
		if s.From == victim {
			found = true
			if _, ok := srun.RepresentativeStats[s.To]; !ok {
				t.Fatalf("substitute %d was not simulated", s.To)
			}
		}
	}
	if !found && len(srun.Degradation.LostStrata) == 0 {
		t.Fatalf("no substitution or loss recorded for %d: %+v", victim, srun.Degradation)
	}
	if _, ok := srun.RepresentativeStats[victim]; ok {
		t.Fatalf("quarantined frame %d was simulated", victim)
	}
	// The up-front quarantine is reported exactly as a batch campaign
	// reports it.
	want := []megsim.QuarantineRecord{{Frame: victim, Err: "pre-quarantined"}}
	if got := srun.Supervision.Quarantined; !reflect.DeepEqual(got, want) {
		t.Fatalf("Supervision.Quarantined = %+v, want %+v", got, want)
	}
}

// TestSampleStreamingCancelMidWindow: a campaign cancelled during an
// eager phase-2 round — while phase 1 holds frames characterized ahead
// of the ingest cursor in its current window — checkpoints at exactly
// the ingested frame count, discarding the look-ahead, and its resume
// finishes byte-identical to an uninterrupted run. EagerEvery is not a
// multiple of the characterization window, so the round (and the kill)
// lands mid-window.
func TestSampleStreamingCancelMidWindow(t *testing.T) {
	tr := megsim.MustGenerateBenchmark("jjo", testScale())
	gpu := megsim.DefaultGPUConfig()
	const eager = 37
	if tr.NumFrames() <= 2*eager {
		t.Fatalf("trace has %d frames, want more than %d", tr.NumFrames(), 2*eager)
	}
	opts := func(ckpt string, resume bool, runner megsim.ResilientFrameFunc) megsim.StreamingOptions {
		return megsim.StreamingOptions{
			EagerEvery: eager,
			Runner:     runner,
			Resilience: megsim.ResilienceConfig{CheckpointPath: ckpt, Resume: resume},
		}
	}

	ref, err := megsim.SampleStreaming(context.Background(), tr, opts(filepath.Join(t.TempDir(), "ref.ckpt"), false, nil), gpu)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := normalizeReport(serve.NewStreamingCampaignReport(ref, 0))

	ckpt := filepath.Join(t.TempDir(), "stream.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killer := func(context.Context, int, *megsim.ObsRegistry) (megsim.FrameStats, error) {
		cancel()
		return megsim.FrameStats{}, context.Canceled
	}
	if _, err := megsim.SampleStreaming(ctx, tr, opts(ckpt, false, killer), gpu); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}

	res, err := megsim.SampleStreaming(context.Background(), tr, opts(ckpt, true, nil), gpu)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if res.StreamResumeErr != nil {
		t.Fatalf("stream resume fell back: %v", res.StreamResumeErr)
	}
	if res.ResumedFrames != eager {
		t.Fatalf("resumed %d ingest frames, want exactly %d (the frames ingested before the kill)", res.ResumedFrames, eager)
	}
	if got := normalizeReport(serve.NewStreamingCampaignReport(res, 0)); !bytes.Equal(got, refBytes) {
		t.Fatalf("resumed report not byte-identical to uninterrupted run:\n%s\n---\n%s", got, refBytes)
	}
}

// TestStreamSessionChunkInvariant: a session fed in ragged chunks, some
// spanning a characterization window boundary, ends in the same strata
// as one fed the whole trace at once, and its after hook sees every
// frame exactly once, in order.
func TestStreamSessionChunkInvariant(t *testing.T) {
	sc := testScale()
	sc.FrameDivisor = 8 // more frames than one characterization window
	tr := megsim.MustGenerateBenchmark("jjo", sc)
	n := tr.NumFrames()
	if n <= 300 {
		t.Fatalf("trace has %d frames, want more than 300", n)
	}
	ctx := context.Background()

	whole, err := megsim.OpenStream(tr, megsim.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := whole.Ingest(ctx, n+10, nil); err != nil || got != n {
		t.Fatalf("whole-trace ingest added %d frames (err %v), want %d", got, err, n)
	}
	want, err := whole.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	chunked, err := megsim.OpenStream(tr, megsim.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	after := func(f int) error {
		if f != next {
			t.Fatalf("after saw frame %d, want %d", f, next)
		}
		next++
		return nil
	}
	for _, c := range []int{1, 300, 7, n} {
		before := chunked.Frames()
		got, err := chunked.Ingest(ctx, c, after)
		if err != nil {
			t.Fatal(err)
		}
		if wantN := min(c, n-before); got != wantN {
			t.Fatalf("chunk of %d at frame %d added %d frames, want %d", c, before, got, wantN)
		}
	}
	if next != n {
		t.Fatalf("after saw %d frames, want %d", next, n)
	}
	if got, err := chunked.Snapshot(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("chunked strata differ from whole-trace strata (err %v)", err)
	}
	if got, err := chunked.Ingest(ctx, 5, nil); got != 0 || err != nil {
		t.Fatalf("ingest past the end added %d frames (err %v)", got, err)
	}
}

// TestStreamSessionIngestStops: ingest stops at a frame boundary. An
// error from the after hook stops right after its frame, a cancelled
// context adds nothing more, and a later call resumes at the next
// frame with strata identical to an uninterrupted ingest.
func TestStreamSessionIngestStops(t *testing.T) {
	tr := megsim.MustGenerateBenchmark("hcr", testScale())
	n := tr.NumFrames()
	bg := context.Background()

	ref, err := megsim.OpenStream(tr, megsim.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Ingest(bg, n, nil); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	sess, err := megsim.OpenStream(tr, megsim.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	const at = 5
	got, err := sess.Ingest(bg, n, func(f int) error {
		if f == at {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || got != at+1 || sess.Frames() != at+1 {
		t.Fatalf("hook stop: added %d, frames %d, err %v; want %d frames and the hook's error", got, sess.Frames(), err, at+1)
	}

	ctx, cancel := context.WithCancel(bg)
	cancel()
	if got, err := sess.Ingest(ctx, n, nil); !errors.Is(err, context.Canceled) || got != 0 || sess.Frames() != at+1 {
		t.Fatalf("cancelled ingest: added %d, frames %d, err %v", got, sess.Frames(), err)
	}

	if _, err := sess.Ingest(bg, n, nil); err != nil {
		t.Fatal(err)
	}
	if snap, err := sess.Snapshot(); err != nil || !bytes.Equal(snap, want) {
		t.Fatalf("interrupted ingest ended in different strata (err %v)", err)
	}
}
