package megsim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/tbr"
)

// Resilience re-exports: the supervisor configuration and outcome types
// of internal/resilience, so a user can drive supervised runs from the
// single public import.
type (
	// ResilienceConfig configures the run supervisor: retry/backoff,
	// quarantine, checkpoint/resume, watchdog.
	ResilienceConfig = resilience.Config
	// ResilienceResult is the supervisor's outcome: completed stats,
	// quarantine records, resume/retry/stall accounting.
	ResilienceResult = resilience.Result
	// QuarantineRecord describes one frame the supervisor gave up on.
	QuarantineRecord = resilience.QuarantineRecord
	// DegradedSelection is a selection adjusted for quarantined frames.
	DegradedSelection = resilience.DegradedSelection
	// Substitution records one representative replaced by a stand-in.
	Substitution = resilience.Substitution
	// ResilientFrameFunc simulates one frame for the supervisor.
	ResilientFrameFunc = resilience.FrameFunc
)

// Supervise runs fn over frames under the run supervisor: per-frame
// retry with capped deterministic backoff, quarantine, frame-granularity
// checkpointing with resume, and the stall watchdog. It is the
// frame-loop primitive behind Sample, exposed for callers (the
// gpusim CLI, custom sweeps) that bring their own frame list.
func Supervise(ctx context.Context, frames []int, fn ResilientFrameFunc, cfg ResilienceConfig) (*ResilienceResult, error) {
	return resilience.Run(ctx, frames, fn, cfg)
}

// ResilientRun is a sampling run executed under the run supervisor. On
// a healthy run it is exactly a Run; when frames were quarantined it
// additionally carries the supervision record and the degraded
// selection the estimate was computed from — degradation is always
// reported, never silent.
type ResilientRun struct {
	*Run
	// Supervision aggregates the supervisor outcomes (one per
	// degradation round): quarantines, retries, resumed frames, stalls.
	Supervision *ResilienceResult
	// Degradation is non-nil when representatives were substituted or
	// clusters lost; the Estimate then comes from the degraded
	// selection with rescaled weights.
	Degradation *DegradedSelection
}

// Degraded reports whether the estimate was computed from a degraded
// selection.
func (r *ResilientRun) Degraded() bool {
	return r.Degradation != nil && r.Degradation.Degraded()
}

// RunFingerprint identifies a (workload, GPU configuration) pair for
// checkpoint compatibility: resuming is only allowed when the trace and
// every result-affecting GPU setting match. Knobs that never affect
// per-frame results — observability, invariant checkers, and the
// tile-worker count (any TileWorkers >= 1 is byte-identical) — are
// excluded, so a run checkpointed on 4 tile workers resumes cleanly on
// 1.
func RunFingerprint(tr *Trace, gpu GPUConfig) string {
	g := gpu
	g.Obs = nil
	g.Check = nil
	if g.TileWorkers > 1 {
		g.TileWorkers = 1
	}
	b, err := json.Marshal(struct {
		Trace  string     `json:"trace"`
		Frames int        `json:"frames"`
		GPU    tbr.Config `json:"gpu"`
	}{tr.Name, tr.NumFrames(), g})
	if err != nil {
		// tbr.Config is plain data; failure here is a programming error.
		panic(fmt.Sprintf("megsim: fingerprint: %v", err))
	}
	sum := sha256.Sum256(b)
	return "megsim-" + hex.EncodeToString(sum[:12])
}

// FrameRunner adapts the cycle-level simulator to the supervisor's
// FrameFunc: each attempt simulates one frame on a fresh simulator
// instance recording into the supervisor's per-frame registry, so the
// result is a pure function of the frame (frame isolation) and failed
// attempts never leave torn state behind.
func FrameRunner(tr *Trace, gpu GPUConfig) resilience.FrameFunc {
	return func(ctx context.Context, frame int, reg *obs.Registry) (FrameStats, error) {
		if err := ctx.Err(); err != nil {
			return FrameStats{}, err
		}
		g := gpu
		g.Obs = reg
		sim, err := NewSimulator(g, tr)
		if err != nil {
			return FrameStats{}, err
		}
		return sim.SimulateFrame(frame), nil
	}
}

// Sample executes the full MEGsim flow on a trace: characterize, select
// representatives, simulate only those frames on the cycle-level
// simulator, and extrapolate full-sequence statistics. The
// representatives run under the run supervisor: each frame is
// simulated with per-frame retry and quarantine, progress is
// checkpointed at frame granularity (when rcfg.CheckpointPath is set),
// and quarantined representatives degrade gracefully — the next-closest
// in-cluster frame substitutes, weights rescale, and the ResilientRun
// reports the degradation. Cancelling ctx stops at the next frame
// boundary with a final checkpoint flushed, so a later call with
// rcfg.Resume picks up exactly where the run died; the resumed run's
// estimate and observability are byte-identical to an uninterrupted one.
func Sample(ctx context.Context, tr *Trace, cfg Config, gpu GPUConfig, rcfg ResilienceConfig) (*ResilientRun, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ch, err := Characterize(tr)
	if err != nil {
		return nil, fmt.Errorf("megsim: characterization: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sel, err := SelectFrames(ch, cfg)
	if err != nil {
		return nil, fmt.Errorf("megsim: selection: %w", err)
	}
	return SamplePrepared(ctx, tr, ch, sel, gpu, rcfg, FrameRunner(tr, gpu))
}

// SamplePrepared is the supervise-then-degrade core of Sample for
// callers that bring their own characterization,
// selection and frame function — the campaign service (internal/serve)
// uses it to reuse a content-addressed characterization cache and to
// wrap FrameRunner with a per-representative result cache. The
// semantics are exactly Sample's given the same inputs: fn
// must be pure per frame (same frame, same stats), which FrameRunner —
// or a cache over it — provides.
func SamplePrepared(ctx context.Context, tr *Trace, ch *Characterization, sel *Selection, gpu GPUConfig, rcfg ResilienceConfig, fn ResilientFrameFunc) (*ResilientRun, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if rcfg.Fingerprint == "" {
		rcfg.Fingerprint = RunFingerprint(tr, gpu)
	}
	if rcfg.Obs == nil {
		rcfg.Obs = gpu.Obs
	}

	// Supervise-then-degrade fixed point: simulate the active
	// representatives; every newly quarantined frame re-degrades the
	// selection, whose substitutes are simulated in the next round.
	sup := newSupervisor(fn, rcfg)
	degrade := func(q map[int]bool) []int { return resilience.Degrade(sel, q).ActiveRepresentatives() }
	if err := sup.settle(ctx, degrade, false, nil); err != nil {
		return &ResilientRun{Run: &Run{Trace: tr, Characterization: ch, Selection: sel}, Supervision: sup.result}, err
	}

	run := &Run{
		Trace:               tr,
		Characterization:    ch,
		Selection:           sel,
		RepresentativeStats: sup.stats,
	}
	out := &ResilientRun{Run: run, Supervision: sup.result}
	var err error
	if deg := resilience.Degrade(sel, sup.quarantined); deg.Degraded() {
		out.Degradation = deg
		run.Estimate, err = deg.Estimate(sup.stats)
	} else {
		run.Estimate, err = sel.Estimate(sup.stats)
	}
	if err != nil {
		return out, fmt.Errorf("megsim: estimation: %w", err)
	}
	return out, nil
}

// supervisor is the phase-2 state of one sampling campaign, shared by
// SamplePrepared and SampleStreaming: the quarantine set, the stats of
// every simulated frame and the aggregate supervision record. Frames
// the caller quarantined up front are mirrored into the aggregate once,
// as "pre-quarantined" records, so every quarantine is visible in one
// place.
type supervisor struct {
	fn ResilientFrameFunc
	// cfg is the per-round configuration. Round 0 resumes the
	// checkpoint only when cfg.Resume asks; later rounds always resume
	// it, so one file accumulates the whole campaign.
	cfg         ResilienceConfig
	rounds      int
	quarantined map[int]bool
	stats       map[int]FrameStats
	result      *ResilienceResult
}

func newSupervisor(fn ResilientFrameFunc, cfg ResilienceConfig) *supervisor {
	s := &supervisor{
		fn:          fn,
		cfg:         cfg,
		quarantined: map[int]bool{},
		stats:       map[int]FrameStats{},
		result:      &ResilienceResult{CheckpointPath: cfg.CheckpointPath},
	}
	for _, f := range cfg.Quarantine {
		s.quarantined[f] = true
	}
	for f := range s.quarantined {
		s.result.Quarantined = append(s.result.Quarantined, QuarantineRecord{Frame: f, Err: "pre-quarantined"})
	}
	sort.Slice(s.result.Quarantined, func(i, j int) bool { return s.result.Quarantined[i].Frame < s.result.Quarantined[j].Frame })
	// The plan functions exclude quarantined frames, so the supervisor
	// never needs to see them.
	s.cfg.Quarantine = nil
	return s
}

// round runs one supervisor pass over frames, recording observability
// into parent. state, when non-nil, supplies the strata snapshot every
// per-frame checkpoint rewrite carries. Completed stats and fresh
// quarantines fold into the supervisor's sets; the caller decides
// whether the round's record joins the aggregate.
func (s *supervisor) round(ctx context.Context, frames []int, parent *ObsRegistry, state func() ([]byte, error)) (*ResilienceResult, error) {
	cfg := s.cfg
	cfg.Resume = cfg.Resume || s.rounds > 0
	cfg.Obs = parent
	if state != nil {
		snap, err := state()
		if err != nil {
			return nil, err
		}
		cfg.StreamState = snap
	}
	s.rounds++
	r, err := resilience.Run(ctx, frames, s.fn, cfg)
	if r != nil {
		for f, st := range r.Stats {
			s.stats[f] = st
		}
		for _, q := range r.Quarantined {
			s.quarantined[q.Frame] = true
		}
	}
	return r, err
}

// settle is the supervise-then-degrade fixed point: each round
// simulates the frames plan names for the current quarantine set that
// settle has not requested yet, skipping frames an earlier round
// already simulated unless redo is set, and every fresh quarantine
// re-plans. A negative plan entry (a lost stratum) requests nothing.
// It terminates because each round either quarantines a new frame
// (finitely many) or leaves nothing new to request.
func (s *supervisor) settle(ctx context.Context, plan func(quarantined map[int]bool) []int, redo bool, state func() ([]byte, error)) error {
	requested := map[int]bool{}
	for round := 0; ; round++ {
		var todo []int
		for _, f := range plan(s.quarantined) {
			if _, done := s.stats[f]; f < 0 || requested[f] || (done && !redo) {
				continue
			}
			requested[f] = true
			todo = append(todo, f)
		}
		if len(todo) == 0 {
			return nil
		}
		r, err := s.round(ctx, todo, s.cfg.Obs, state)
		if r != nil {
			mergeSupervision(s.result, r, round == 0)
		}
		if err != nil {
			return err
		}
	}
}

// mergeSupervision folds one supervisor round into the aggregate.
func mergeSupervision(dst, r *ResilienceResult, first bool) {
	if dst.Stats == nil {
		dst.Stats = map[int]FrameStats{}
	}
	for f, st := range r.Stats {
		dst.Stats[f] = st
	}
	seen := map[int]bool{}
	for _, q := range dst.Quarantined {
		seen[q.Frame] = true
	}
	for _, q := range r.Quarantined {
		if !seen[q.Frame] {
			dst.Quarantined = append(dst.Quarantined, q)
		}
	}
	sort.Slice(dst.Quarantined, func(i, j int) bool { return dst.Quarantined[i].Frame < dst.Quarantined[j].Frame })
	dst.Retried += r.Retried
	dst.Requeued += r.Requeued
	if first {
		// Only round 0 reflects a user-requested resume; later rounds
		// always "resume" the checkpoint this same call wrote.
		dst.Resumed = r.Resumed
		dst.ResumeErr = r.ResumeErr
	}
	for _, w := range r.StalledWorkers {
		found := false
		for _, have := range dst.StalledWorkers {
			if have == w {
				found = true
			}
		}
		if !found {
			dst.StalledWorkers = append(dst.StalledWorkers, w)
		}
	}
	sort.Ints(dst.StalledWorkers)
}
