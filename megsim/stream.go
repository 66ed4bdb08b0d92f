package megsim

import (
	"context"
	"fmt"

	"repro/internal/funcsim"
	"repro/internal/resilience"
	"repro/internal/stream"
)

// Streaming re-exports: the bounded-memory online first phase of
// internal/stream, usable from the single public import.
type (
	// StreamConfig configures the online stratifier: stratum budget,
	// per-stratum reservoir capacity, seed, feature construction.
	StreamConfig = stream.Config
	// StreamSelection is the streaming second-phase plan: strata with
	// member counts, representatives and substitution alternates.
	StreamSelection = stream.Selection
	// StreamStratum is one finalized stratum.
	StreamStratum = stream.Stratum
	// StreamDegradation reports substituted representatives and lost
	// strata in a streaming estimate.
	StreamDegradation = stream.Degradation
)

// DefaultStreamConfig returns the paper-faithful streaming settings.
func DefaultStreamConfig() StreamConfig { return stream.DefaultConfig() }

// StreamSession is a streaming first phase in progress over one trace:
// the frame-parallel characterizer, the online stratifier and the
// reused characterization window. SampleStreaming drives one over a
// whole trace; the campaign service drives one a chunk at a time. The
// embedded Ingestor reads out the strata (Frames, Snapshot, Finalize,
// the accounting) and restores a snapshot into a fresh session; frames
// enter through Ingest.
type StreamSession struct {
	*stream.Ingestor
	streamer *funcsim.Streamer
	window   []funcsim.FrameProfile
}

// OpenStream starts a streaming first phase over tr. Only the trace's
// static shader costs are read; no frame is characterized yet.
func OpenStream(tr *Trace, cfg StreamConfig) (*StreamSession, error) {
	st, err := funcsim.NewStreamer(tr)
	if err != nil {
		return nil, err
	}
	vs, fs := st.Static()
	return &StreamSession{Ingestor: stream.NewIngestor(tr.Name, vs, fs, cfg), streamer: st}, nil
}

// Ingest characterizes up to n more frames of the trace, frame-parallel
// a window at a time, and adds them to the stratifier in frame order,
// calling after (when non-nil) with each frame just added. It returns
// how many frames it added and stops at a frame boundary: a window
// whose characterization fails or is cancelled adds nothing, a ctx
// cancelled between frames stops before the next one, and an error
// from after stops right after its frame. Cancellation and after's
// errors are returned as they are.
func (s *StreamSession) Ingest(ctx context.Context, n int, after func(frame int) error) (int, error) {
	n = min(n, s.streamer.NumFrames()-s.Frames())
	if n > 0 && s.window == nil {
		s.window = make([]funcsim.FrameProfile, streamWindow)
	}
	added := 0
	for added < n {
		first := s.Frames()
		window := s.window[:min(n-added, streamWindow)]
		if err := s.streamer.ProfileRange(ctx, window, first); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return added, cerr
			}
			return added, fmt.Errorf("frames [%d,%d): %w", first, first+len(window), err)
		}
		for i := range window {
			if err := ctx.Err(); err != nil {
				return added, err
			}
			if err := s.Add(&window[i]); err != nil {
				return added, fmt.Errorf("frame %d: %w", first+i, err)
			}
			added++
			if after != nil {
				if err := after(first + i); err != nil {
					return added, err
				}
			}
		}
	}
	return added, nil
}

// StreamingOptions configures SampleStreaming.
type StreamingOptions struct {
	// Stream configures the online first phase (zero value = defaults).
	Stream StreamConfig
	// Resilience configures the phase-2 supervisor: retry, quarantine,
	// checkpointing. With CheckpointPath set, ingest progress (the
	// strata snapshot) checkpoints alongside simulated frames inside
	// the same CRC envelope, and Resume restarts mid-stream.
	Resilience ResilienceConfig
	// EagerEvery launches representative simulations mid-stream every
	// EagerEvery ingested frames — the "second phase as strata
	// stabilize" mode. Simulated frames are pure per frame, so eager
	// results are a warm cache: frames still representative at stream
	// end are adopted, the rest are wasted work but never wrong.
	// 0 = run phase 2 only at stream end.
	EagerEvery int
	// CheckpointEvery bounds how many ingested frames a crash can lose
	// (0 = DefaultStreamCheckpointEvery; negative = checkpoint only at
	// phase boundaries). Ignored without a CheckpointPath.
	CheckpointEvery int
	// Runner overrides the phase-2 frame function (nil = the in-process
	// simulator via FrameRunner). The campaign service wraps its
	// per-representative stats cache and remote dispatch here; the
	// function must honor FrameRunner's purity contract.
	Runner ResilientFrameFunc
	// Snapshot, when non-empty, seeds the ingestor from a strata
	// snapshot taken by another Ingestor over the same workload (the
	// service's chunked-upload sessions hand their ingest state to the
	// phase-2 job this way). A checkpoint's own stream state, when
	// present, takes precedence. Restore failure falls back to
	// re-ingesting from frame zero and is reported in StreamResumeErr.
	Snapshot []byte
	// MaxFrames truncates the stream to its first MaxFrames frames
	// (0 = the whole trace): the estimate then extrapolates over the
	// streamed prefix only, which is what a chunked-upload session that
	// stopped early means.
	MaxFrames int
}

// DefaultStreamCheckpointEvery is the default ingest checkpoint cadence.
const DefaultStreamCheckpointEvery = 16

// streamWindow is how many frames a StreamSession characterizes per
// frame-parallel ProfileRange call before ingesting them in order: wide
// enough to keep every core busy between ingest stretches, small
// enough that the look-ahead profiles stay a few hundred KiB.
const streamWindow = 256

// StreamingRun is the outcome of a streaming sampling campaign.
type StreamingRun struct {
	// Trace is the analyzed workload.
	Trace *Trace
	// Selection is the finalized streaming selection.
	Selection *StreamSelection
	// RepresentativeStats maps simulated frame -> stats (it may hold
	// extra frames simulated eagerly for strata that later merged).
	RepresentativeStats map[int]FrameStats
	// Estimate is the extrapolated full-stream statistics.
	Estimate FrameStats
	// Supervision aggregates the phase-2 supervisor outcomes.
	Supervision *ResilienceResult
	// Degradation is non-nil when representatives were substituted or
	// strata lost; never silent.
	Degradation *StreamDegradation
	// ResumedFrames counts ingest work skipped by restoring a strata
	// snapshot (frames NOT re-characterized on resume).
	ResumedFrames int
	// StreamResumeErr records why a requested mid-stream resume fell
	// back to re-ingesting from frame zero (missing/corrupt/mismatched
	// snapshot). Re-ingest reproduces the identical strata, so this is
	// a performance note, not an accuracy one.
	StreamResumeErr error
}

// Representatives returns the frames the final plan simulated.
func (r *StreamingRun) Representatives() []int { return r.Selection.Representatives() }

// ReductionFactor returns frames/strata.
func (r *StreamingRun) ReductionFactor() float64 { return r.Selection.ReductionFactor() }

// Degraded reports whether the estimate was computed from a degraded
// plan.
func (r *StreamingRun) Degraded() bool { return r.Degradation.Degraded() }

// SampleStreaming executes the streaming MEGsim flow over a trace
// replayed as a frame stream: frames are characterized frame-parallel a
// window at a time and folded into the online stratifier one at a time,
// in frame order — the full N × D matrix is never built — then the
// finalized strata's representatives are simulated under the resilient
// supervisor and extrapolated by stratum weight.
// Memory stays O(strata · reservoir) regardless of trace length.
//
// With Resilience.CheckpointPath set the campaign is killable anywhere:
// ingest checkpoints the strata snapshot every CheckpointEvery frames,
// phase 2 checkpoints per completed frame (with the snapshot preserved
// in the same envelope), and a Resume re-run finishes with stats,
// report and checkpoint bytes identical to an uninterrupted run.
func SampleStreaming(ctx context.Context, tr *Trace, opts StreamingOptions, gpu GPUConfig) (*StreamingRun, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sess, err := OpenStream(tr, opts.Stream)
	if err != nil {
		return nil, fmt.Errorf("megsim: streaming characterization: %w", err)
	}

	rcfg := opts.Resilience
	if rcfg.Fingerprint == "" {
		rcfg.Fingerprint = RunFingerprint(tr, gpu)
	}
	if rcfg.Obs == nil {
		rcfg.Obs = gpu.Obs
	}
	hasCk := rcfg.CheckpointPath != ""
	every := opts.CheckpointEvery
	if every == 0 {
		every = DefaultStreamCheckpointEvery
	}
	runner := opts.Runner
	if runner == nil {
		runner = FrameRunner(tr, gpu)
	}
	numFrames := tr.NumFrames()
	if opts.MaxFrames > 0 && opts.MaxFrames < numFrames {
		numFrames = opts.MaxFrames
	}

	// Every phase-2 round resumes the checkpoint: ingest has already
	// written it with the strata snapshot, and eager rounds' records
	// must survive into the final rounds.
	supCfg := rcfg
	supCfg.Resume = hasCk
	sup := newSupervisor(runner, supCfg)
	run := &StreamingRun{Trace: tr, Supervision: sup.result}

	// Resume: restore the strata snapshot from the checkpoint and skip
	// the frames it already ingested. Failure of any kind falls back to
	// re-ingesting from frame zero — characterization is deterministic,
	// so the rebuilt strata are identical, just slower to reach.
	base := &resilience.Checkpoint{Fingerprint: rcfg.Fingerprint}
	restore := func(snap []byte) {
		if rerr := sess.Restore(snap); rerr != nil {
			run.StreamResumeErr = rerr
			return
		}
		run.ResumedFrames = sess.Frames()
	}
	if hasCk && rcfg.Resume {
		ck, lerr := resilience.LoadCheckpoint(rcfg.CheckpointPath, rcfg.Fingerprint)
		switch {
		case lerr != nil:
			run.StreamResumeErr = lerr
		case ck != nil:
			// A checkpoint without stream state holds batch-era
			// records; its stream state starts fresh.
			if len(ck.Stream) > 0 {
				restore(ck.Stream)
			}
			base = ck
		}
	}
	// A caller-provided snapshot seeds the session only when the
	// checkpoint didn't already restore strata state (the checkpoint is
	// never behind: every rewrite carries the latest snapshot).
	if len(opts.Snapshot) > 0 && sess.Frames() == 0 && sess.NumStrata() == 0 {
		restore(opts.Snapshot)
	}
	if sess.Frames() > numFrames {
		return nil, fmt.Errorf("megsim: strata snapshot has %d frames, stream has %d", sess.Frames(), numFrames)
	}

	// snapshot is the strata state every checkpoint rewrite carries.
	snapshot := func() ([]byte, error) {
		snap, serr := sess.Snapshot()
		if serr != nil {
			return nil, fmt.Errorf("megsim: strata snapshot: %w", serr)
		}
		return snap, nil
	}
	var state func() ([]byte, error)
	if hasCk {
		state = snapshot
	}
	// saveIngest rewrites the checkpoint with the current strata
	// snapshot while preserving every completed frame record.
	saveIngest := func() error {
		if !hasCk {
			return nil
		}
		snap, serr := snapshot()
		if serr != nil {
			return serr
		}
		base.Stream = snap
		return resilience.SaveCheckpoint(rcfg.CheckpointPath, base)
	}
	if err := saveIngest(); err != nil {
		return run, err
	}

	// eagerRound simulates the representatives the current strata plan
	// that have not run yet. Eager observability goes to a discardable
	// twin of the real registry when checkpointing: the per-frame deltas
	// persist in the records and merge into the real registry exactly
	// once, during the final phase — identically in interrupted and
	// uninterrupted runs. Without a checkpoint there is no adoption
	// path, so merge directly.
	eagerRound := func() error {
		sel, err := sess.Finalize()
		if err != nil {
			return err
		}
		var todo []int
		for _, f := range sel.Plan(sup.quarantined) {
			if _, done := sup.stats[f]; f >= 0 && !done {
				todo = append(todo, f)
			}
		}
		if len(todo) == 0 {
			return nil
		}
		parent := rcfg.Obs
		if hasCk {
			parent = rcfg.Obs.NewLocal()
		}
		r, err := sup.round(ctx, todo, parent, state)
		if r != nil && hasCk {
			// Re-adopt the checkpoint so later ingest-time rewrites
			// keep the round's frame records.
			if ck, lerr := resilience.LoadCheckpoint(rcfg.CheckpointPath, rcfg.Fingerprint); lerr == nil && ck != nil {
				base = ck
			}
		}
		if r != nil && !hasCk {
			mergeSupervision(sup.result, r, false)
		}
		return err
	}

	// Phase 1: ingest the rest of the stream in frame order,
	// checkpointing strata state and — in eager mode — launching
	// representative simulations as they settle. Ingest stops at a frame
	// boundary, so on cancellation the checkpoint snapshot sits at
	// exactly the ingested frame count.
	var hookErr error
	after := func(f int) error {
		if hasCk && every > 0 && (f+1)%every == 0 {
			if hookErr = saveIngest(); hookErr != nil {
				return hookErr
			}
		}
		if opts.EagerEvery > 0 && (f+1)%opts.EagerEvery == 0 && f+1 < numFrames {
			hookErr = eagerRound()
		}
		return hookErr
	}
	if _, err := sess.Ingest(ctx, numFrames-sess.Frames(), after); err != nil {
		switch {
		case hookErr != nil:
			return run, err
		case ctx.Err() != nil:
			if serr := saveIngest(); serr != nil {
				return run, serr
			}
			return run, err
		default:
			return run, fmt.Errorf("megsim: streaming characterization: %w", err)
		}
	}
	if sess.Frames() == 0 {
		return run, fmt.Errorf("megsim: empty trace, nothing to stream")
	}
	if err := saveIngest(); err != nil {
		return run, err
	}

	sel, err := sess.Finalize()
	if err != nil {
		return run, err
	}
	run.Selection = sel

	// Phase 2: the supervise-then-degrade fixed point over the strata
	// plan, each quarantine re-planning with the next alternate on the
	// stratum's ladder. With a checkpoint, eagerly simulated frames are
	// requested again so the final round adopts their records and their
	// observability merges exactly once; without one, their obs merged
	// when they ran, so they are skipped.
	if err := sup.settle(ctx, sel.Plan, hasCk, state); err != nil {
		return run, err
	}
	est, deg, err := sel.EstimateWith(sel.Plan(sup.quarantined), sup.stats)
	if err != nil {
		return run, fmt.Errorf("megsim: streaming estimation: %w", err)
	}
	run.RepresentativeStats = sup.stats
	run.Estimate = est
	if deg.Degraded() {
		run.Degradation = deg
	}
	return run, nil
}
