package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/funcsim"
	"repro/internal/gltrace"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/tbr"
	"repro/internal/workload"
	"repro/megsim"
)

// workloadSpec is one benchmark workload: a Table II profile, the
// pipeline that samples it and the GPU presets it is simulated under.
type workloadSpec struct {
	name, why string
	alias     string
	frameDiv  int
	segments  int      // independently seeded segments the trace is built from
	streaming bool     // megsim.SampleStreaming instead of the batch pipeline
	presets   []string // tbr presets; the batch pipeline runs once per preset
	obs       bool     // give every simulation an enabled obs registry
}

var workloads = []workloadSpec{
	{
		name:  "batch-3d",
		why:   "bbr1, 500 frames from 10 seeded segments, D=136, batch pipeline, obs off: functional simulation and k-means selection dominate the sampled path",
		alias: "bbr1", frameDiv: 5, segments: 10, presets: []string{"mali450"},
	},
	{
		name:  "stream-2d",
		why:   "pvz, 5000 frames, through SampleStreaming: the only workload that runs stream ingest and the resilient supervisor; it skips core.Select and the batch RunObs loop",
		alias: "pvz", frameDiv: 1, segments: 1, streaming: true, presets: []string{"mali450"},
	},
	{
		name:  "sweep-2d-obs",
		why:   "hcr, 500 frames, selected once, then simulated under four GPU presets with obs on, as a design study: cycle simulation and obs dominate",
		alias: "hcr", frameDiv: 4, segments: 1, presets: []string{"mali450", "lowend", "highend", "tbdr"}, obs: true,
	},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// mixSeed derives the profile seed for a benchmark seed. Seed 0 keeps
// the Table II profile's own seed; any other seed changes the per-frame
// content but not the frame count, shader counts or phases.
func mixSeed(profileSeed, seed uint64) uint64 {
	if seed == 0 {
		return profileSeed
	}
	return splitmix64(profileSeed ^ splitmix64(seed))
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// generate builds a workload's trace for a benchmark seed. The trace
// is w.segments segments, each the workload's profile at 1/segments of
// its length under its own seed mixSeed(profile seed, seed*segments+i),
// concatenated. All segments use the Table II profile's shader programs
// and meshes: a seed changes what each frame draws and where, never
// the shaders, the frame count or the phases. With one segment, seed 0
// is exactly the Table II trace.
//
// Segments exist because one seed draws few independent placements: on
// 3D profiles the simulated work of one trace varies by about ±20% from
// seed to seed, and a trace built from many seeds varies far less.
func generate(w workloadSpec, sc workload.Scale, seed uint64) (*gltrace.Trace, error) {
	p, err := workload.Get(w.alias)
	if err != nil {
		return nil, err
	}
	// Resources are generated before any frame, so a one-frame-per-phase
	// trace carries the same shaders and meshes as the full one.
	resScale := sc
	resScale.FrameDivisor = p.Frames
	table, err := workload.Generate(p, resScale)
	if err != nil {
		return nil, err
	}
	tr := *table
	tr.Frames = nil
	segScale := sc
	segScale.FrameDivisor *= w.segments
	for i := 0; i < w.segments; i++ {
		sp := p
		sp.Seed = mixSeed(p.Seed, seed*uint64(w.segments)+uint64(i))
		seg, err := workload.Generate(sp, segScale)
		if err != nil {
			return nil, err
		}
		tr.Frames = append(tr.Frames, seg.Frames...)
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return &tr, nil
}

// bench runs campaigns of one workload over one generated trace.
type bench struct {
	w     workloadSpec
	scale workload.Scale
	seed  uint64
	tr    *gltrace.Trace
	// t is the active tracer: set while a traced campaign runs, nil
	// otherwise.
	t *tracer
	// tamper, when set, alters representative statistics before the
	// estimate; tests use it to prove the output checks catch it.
	tamper func(map[int]tbr.FrameStats)
}

// usage is what one layer call cost the host.
type usage struct {
	wall, cpu time.Duration
	allocMB   float64
}

// outcome is one campaign's timings, output checks and, when traced,
// per-layer figures.
type outcome struct {
	seed              uint64
	sampled, full     time.Duration
	frames, reps      int
	errCycles, errMax float64 // percent, worst over presets
	attempted, failed int
	problems          []string
	digest            string

	calls map[string]usage   // per span name, traced only
	layer map[string]float64 // per-layer metrics, traced only
	spans []span             // this campaign's spans, traced only
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failed++
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// setup generates the trace: the cost paid before any campaign.
func (b *bench) setup() (time.Duration, error) {
	t0 := time.Now()
	b.t.begin("workload.generate")
	tr, err := generate(b.w, b.scale, b.seed)
	b.t.end()
	if err != nil {
		return 0, fmt.Errorf("generate %s: %w", b.w.name, err)
	}
	b.tr = tr
	return time.Since(t0), nil
}

// call runs one layer call inside a span. When traced it also records
// the call's wall time, CPU time and allocated bytes; the accounting
// itself sits outside the span.
func (b *bench) call(o *outcome, name string, fn func() error) error {
	if b.t == nil {
		return fn()
	}
	a0 := allocatedBytes()
	c0 := cpuTime()
	t0 := time.Now()
	b.t.begin(name)
	err := fn()
	b.t.end()
	wall := time.Since(t0)
	c1 := cpuTime()
	a1 := allocatedBytes()
	u := o.calls[name]
	u.wall += wall
	u.cpu += c1 - c0
	u.allocMB += float64(a1-a0) / (1 << 20)
	o.calls[name] = u
	return err
}

// registry returns a fresh metrics-only registry, as megsimd gives each
// job, when the workload runs with obs on.
func (b *bench) registry() *obs.Registry {
	if !b.w.obs {
		return nil
	}
	return obs.NewWith(obs.Options{TraceCapacity: -1})
}

func (b *bench) gpus() ([]tbr.Config, error) {
	out := make([]tbr.Config, len(b.w.presets))
	for i, name := range b.w.presets {
		cfg, err := tbr.Preset(name)
		if err != nil {
			return nil, err
		}
		out[i] = cfg
	}
	return out, nil
}

// campaign runs one sampled campaign and the full simulation of the
// same trace, then checks the outputs.
func (b *bench) campaign(ctx context.Context, id int) (*outcome, error) {
	o := &outcome{calls: map[string]usage{}, layer: map[string]float64{}}
	if b.t != nil {
		b.t.campaign = id
	}
	gpus, err := b.gpus()
	if err != nil {
		return nil, err
	}
	// Start every campaign from a collected heap, so none pays for the
	// garbage of the one before.
	runtime.GC()
	b.t.begin("campaign")
	if b.w.streaming {
		err = b.streamCampaign(ctx, o, gpus[0])
	} else {
		err = b.batchCampaign(ctx, o, gpus)
	}
	b.t.end()
	if err != nil {
		return nil, err
	}
	o.frames = b.tr.NumFrames()
	if b.t != nil {
		draws := 0
		for f := range b.tr.Frames {
			draws += b.tr.Frames[f].DrawCount()
		}
		o.layer["workload.frames"] = float64(o.frames)
		o.layer["workload.draws"] = float64(draws)
		o.spans = b.t.campaignSpans(id)
		b.layerMetrics(o)
	}
	return o, nil
}

// batchCampaign is characterize → features → select once, then
// simulate representatives and estimate under every preset; the full
// pass simulates every frame under every preset.
func (b *bench) batchCampaign(ctx context.Context, o *outcome, gpus []tbr.Config) error {
	cfg := core.DefaultConfig()
	var kmeans *obs.Registry
	if b.t != nil {
		kmeans = obs.NewWith(obs.Options{TraceCapacity: -1})
		cfg.Search.Obs = kmeans
	}
	var (
		fr   *funcsim.Result
		fs   *core.FeatureSet
		sel  *core.Selection
		reps = make([]map[int]tbr.FrameStats, len(gpus))
		ests = make([]tbr.FrameStats, len(gpus))
		full = make([][]tbr.FrameStats, len(gpus))
	)

	t0 := time.Now()
	b.t.begin("sampled")
	err := b.call(o, "funcsim.run", func() (err error) { fr, err = funcsim.RunObs(b.tr, nil); return err })
	if err == nil {
		err = b.call(o, "core.features", func() (err error) { fs, err = core.BuildFeatures(fr, cfg.Feature); return err })
	}
	if err == nil {
		err = b.call(o, "core.select", func() (err error) { sel, err = core.Select(fs, cfg); return err })
	}
	for i := 0; err == nil && i < len(gpus); i++ {
		gpu := gpus[i]
		gpu.Obs = b.registry()
		var stats []tbr.FrameStats
		err = b.call(o, "tbr.reps", func() (err error) {
			stats, err = tbr.SimulateFramesParallelCtx(ctx, gpu, b.tr, sel.Representatives, 0)
			return err
		})
		if err != nil {
			break
		}
		reps[i] = make(map[int]tbr.FrameStats, len(stats))
		for j, f := range sel.Representatives {
			reps[i][f] = stats[j]
		}
		if b.tamper != nil {
			b.tamper(reps[i])
		}
		err = b.call(o, "core.estimate", func() (err error) { ests[i], err = sel.Estimate(reps[i]); return err })
	}
	b.t.end()
	o.sampled = time.Since(t0)
	if err != nil {
		return err
	}

	t0 = time.Now()
	b.t.begin("full")
	for i := 0; err == nil && i < len(gpus); i++ {
		gpu := gpus[i]
		gpu.Obs = b.registry()
		err = b.call(o, "tbr.full", func() (err error) {
			full[i], err = tbr.SimulateAllParallelCtx(ctx, gpu, b.tr, 0, nil)
			return err
		})
	}
	b.t.end()
	o.full = time.Since(t0)
	if err != nil {
		return err
	}

	o.reps = sel.NumRepresentatives()
	verr := fr.Validate(b.tr)
	o.check(verr == nil, "funcsim result does not validate: %v", verr)
	digest := sha256.New()
	fmt.Fprintf(digest, "%s %d reps=%v\n", b.tr.Name, b.tr.NumFrames(), sel.Representatives)
	for i := range gpus {
		name := b.w.presets[i]
		o.attempted += len(sel.Representatives) + len(full[i])
		for f, st := range reps[i] {
			o.check(st == full[i][f], "%s: representative frame %d differs from the full pass", name, f)
		}
		want, ferr := sel.EstimateFromFullRun(full[i])
		o.check(ferr == nil && ests[i] == want, "%s: estimate differs from EstimateFromFullRun", name)
		b.score(o, &ests[i], full[i])
		fmt.Fprintf(digest, "%s %+v\n", name, ests[i])
	}
	o.digest = hex.EncodeToString(digest.Sum(nil))

	if b.t != nil {
		o.layer["funcsim.fragments"] = 0
		for i := range fr.Profiles {
			o.layer["funcsim.fragments"] += float64(fr.Profiles[i].Fragments)
		}
		o.layer["core.dims"] = float64(fs.Dims())
		o.layer["core.k_evaluated"] = float64(len(sel.BICScores))
		o.layer["core.k_chosen"] = float64(sel.NumRepresentatives())
		o.layer["cluster.kmeans.runs"] = float64(kmeans.Counter("cluster.kmeans.runs").Value())
		o.layer["cluster.kmeans.iterations"] = float64(kmeans.Counter("cluster.kmeans.iterations").Value())
		o.layer["tbr.rep_frames"] = float64(len(sel.Representatives) * len(gpus))
		for i := range full {
			tot := core.SumStats(full[i])
			o.layer["tbr.sim_cycles"] += float64(tot.Cycles)
			o.layer["tbr.dram_accesses"] += float64(tot.DRAM.Accesses)
		}
	}
	return nil
}

// streamRun is a streaming campaign's result, from either path.
type streamRun struct {
	sel         *stream.Selection
	reps        map[int]tbr.FrameStats
	est         tbr.FrameStats
	quarantined int
	substituted int
}

// streamCampaign samples with megsim.SampleStreaming; a traced campaign
// drives the same steps through the layers' own calls instead, so each
// gets a span. Both must reach identical outputs.
func (b *bench) streamCampaign(ctx context.Context, o *outcome, gpu tbr.Config) error {
	t0 := time.Now()
	b.t.begin("sampled")
	var (
		r   *streamRun
		err error
	)
	if b.t == nil {
		r, err = b.sampleStreaming(ctx, gpu)
	} else {
		r, err = b.sampleStreamingTraced(ctx, o, gpu)
	}
	b.t.end()
	o.sampled = time.Since(t0)
	if err != nil {
		return err
	}

	var full []tbr.FrameStats
	t0 = time.Now()
	b.t.begin("full")
	err = b.call(o, "tbr.full", func() (err error) {
		full, err = tbr.SimulateAllParallelCtx(ctx, gpu, b.tr, 0, nil)
		return err
	})
	b.t.end()
	o.full = time.Since(t0)
	if err != nil {
		return err
	}

	o.reps = r.sel.NumStrata()
	o.attempted = len(r.reps) + len(full)
	o.failed += r.quarantined + r.substituted
	if r.quarantined+r.substituted > 0 {
		o.problems = append(o.problems, fmt.Sprintf("%d quarantined, %d substituted frames", r.quarantined, r.substituted))
	}
	plan := r.sel.Plan(nil)
	fromFull := make(map[int]tbr.FrameStats, len(plan))
	for _, f := range plan {
		fromFull[f] = full[f]
	}
	for f, st := range r.reps {
		o.check(st == full[f], "representative frame %d differs from the full pass", f)
	}
	want, _, ferr := r.sel.EstimateWith(plan, fromFull)
	o.check(ferr == nil && r.est == want, "estimate differs from the full pass's representatives")
	b.score(o, &r.est, full)
	digest := sha256.New()
	fmt.Fprintf(digest, "%s %d strata=%+v\n%+v\n", b.tr.Name, b.tr.NumFrames(), r.sel.Strata, r.est)
	o.digest = hex.EncodeToString(digest.Sum(nil))
	if b.t != nil {
		o.layer["tbr.rep_frames"] = float64(len(r.reps))
		tot := core.SumStats(full)
		o.layer["tbr.sim_cycles"] = float64(tot.Cycles)
		o.layer["tbr.dram_accesses"] = float64(tot.DRAM.Accesses)
	}
	return nil
}

func (b *bench) sampleStreaming(ctx context.Context, gpu tbr.Config) (*streamRun, error) {
	run, err := megsim.SampleStreaming(ctx, b.tr, megsim.StreamingOptions{Stream: megsim.DefaultStreamConfig()}, gpu)
	if err != nil {
		return nil, err
	}
	r := &streamRun{sel: run.Selection, reps: run.RepresentativeStats, est: run.Estimate,
		quarantined: len(run.Supervision.Quarantined)}
	if run.Degradation != nil {
		r.substituted = len(run.Degradation.Substitutions) + len(run.Degradation.LostStrata)
	}
	if b.tamper != nil {
		b.tamper(r.reps)
	}
	return r, nil
}

// sampleStreamingTraced is SampleStreaming without checkpointing or
// eager simulation, spelled out call by call: stream every frame
// through the funcsim streamer into the online stratifier, finalize,
// simulate the plan under the supervisor, estimate.
func (b *bench) sampleStreamingTraced(ctx context.Context, o *outcome, gpu tbr.Config) (*streamRun, error) {
	var st *funcsim.Streamer
	if err := b.call(o, "funcsim.streamer", func() (err error) { st, err = funcsim.NewStreamer(b.tr); return err }); err != nil {
		return nil, err
	}
	vs, fs := st.Static()
	ing := stream.NewIngestor(b.tr.Name, vs, fs, megsim.DefaultStreamConfig())
	var prof funcsim.FrameProfile
	err := b.call(o, "stream.ingest_loop", func() error {
		for f := 0; f < b.tr.NumFrames(); f++ {
			b.t.begin("funcsim.profile")
			err := st.ProfileAt(&prof, f)
			b.t.end()
			if err != nil {
				return err
			}
			b.t.begin("stream.add")
			err = ing.Add(&prof)
			b.t.end()
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r := &streamRun{}
	if err := b.call(o, "stream.finalize", func() (err error) { r.sel, err = ing.Finalize(); return err }); err != nil {
		return nil, err
	}
	plan := r.sel.Plan(nil)
	todo := append([]int(nil), plan...)
	sort.Ints(todo)
	rcfg := megsim.ResilienceConfig{Fingerprint: megsim.RunFingerprint(b.tr, gpu)}
	var sup *megsim.ResilienceResult
	if err := b.call(o, "resilience.supervise", func() (err error) {
		sup, err = megsim.Supervise(ctx, todo, megsim.FrameRunner(b.tr, gpu), rcfg)
		return err
	}); err != nil {
		return nil, err
	}
	r.reps = sup.Stats
	r.quarantined = len(sup.Quarantined)
	if b.tamper != nil {
		b.tamper(r.reps)
	}
	var deg *stream.Degradation
	if err := b.call(o, "stream.estimate", func() (err error) { r.est, deg, err = r.sel.EstimateWith(plan, r.reps); return err }); err != nil {
		return nil, err
	}
	if deg.Degraded() {
		r.substituted = len(deg.Substitutions) + len(deg.LostStrata)
	}
	o.layer["stream.strata"] = float64(r.sel.NumStrata())
	o.layer["stream.merges"] = float64(r.sel.Merges)
	o.layer["stream.peak_vectors"] = float64(ing.PeakVectors())
	o.layer["resilience.frames_ok"] = float64(len(sup.Stats))
	o.layer["resilience.retries"] = float64(sup.Retried)
	o.layer["resilience.quarantined"] = float64(len(sup.Quarantined))
	return r, nil
}

// score folds one estimate's Fig. 7 errors against the full pass into
// the outcome's worst-case figures.
func (b *bench) score(o *outcome, est *tbr.FrameStats, full []tbr.FrameStats) {
	truth := core.SumStats(full)
	acc := core.EvaluateAccuracy(est, &truth)
	o.errCycles = max(o.errCycles, acc.Percent(core.MetricCycles))
	for _, m := range core.Metrics() {
		o.errMax = max(o.errMax, acc.Percent(m))
	}
}

// layerMetrics turns a traced campaign's spans and call costs into the
// per-layer metrics.
func (b *bench) layerMetrics(o *outcome) {
	tot := totals(o.spans)
	secs := func(name string) float64 { return tot[name].Seconds() }
	mib := func(name string) float64 { return o.calls[name].allocMB }
	cores := func(name string) float64 {
		u := o.calls[name]
		if u.wall <= 0 {
			return 0
		}
		return u.cpu.Seconds() / u.wall.Seconds()
	}
	l := o.layer
	l["funcsim.run_s"] = secs("funcsim.run")
	l["funcsim.cores_used"] = cores("funcsim.run")
	l["funcsim.alloc_mb"] = mib("funcsim.run")
	if l["funcsim.fragments"] > 0 {
		l["funcsim.ns_per_fragment"] = tot["funcsim.run"].Seconds() * 1e9 / l["funcsim.fragments"]
	}
	l["funcsim.stream_profile_s"] = secs("funcsim.profile")
	l["core.features_s"] = secs("core.features")
	l["core.select_s"] = secs("core.select")
	l["core.select_alloc_mb"] = mib("core.select")
	l["core.estimate_s"] = secs("core.estimate") + secs("stream.estimate")
	l["core.reduction_x"] = float64(o.frames) / float64(o.reps)
	l["core.err_cycles_pct"] = o.errCycles
	l["core.err_max_pct"] = o.errMax
	l["tbr.reps_s"] = secs("tbr.reps")
	l["tbr.full_s"] = secs("tbr.full")
	l["tbr.cores_used"] = cores("tbr.full")
	l["tbr.full_alloc_mb"] = mib("tbr.full")
	if l["tbr.sim_cycles"] > 0 {
		l["tbr.host_ns_per_kcycle"] = tot["tbr.full"].Seconds() * 1e9 / (l["tbr.sim_cycles"] / 1000)
	}
	l["stream.ingest_s"] = secs("stream.add")
	l["stream.finalize_s"] = secs("stream.finalize")
	l["resilience.supervise_s"] = secs("resilience.supervise")

	// Glue is time on the blocking path outside every layer call: the
	// self time of the sampled and full spans.
	self := selfTimes(o.spans)
	glue := self["sampled"] + self["full"]
	if path := tot["sampled"] + tot["full"]; path > 0 {
		l["trace.glue_pct"] = 100 * glue.Seconds() / path.Seconds()
	}
}
