// Command e2ebench times whole MEGsim campaigns end to end: the sampled
// path (characterize, select, simulate representatives, estimate)
// against full cycle simulation of the same trace, in one process, and
// checks every campaign's outputs. A traced run (-trace 1) also wraps a
// span around each call into a layer and reports per-layer figures.
//
// Usage:
//
//	bash e2ebench/run.sh -workload batch-3d -seed 1 -seconds 30 -trace 0
//	bash e2ebench/run.sh -spec > BENCHMARK.json
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero
// when any output check fails. See README.md for the workloads and
// metrics.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/tbr"
	"repro/internal/workload"
)

// digests holds the committed digest of representatives and estimates
// for the default seed, per workload and scale.
//
//go:embed digests.json
var digestsJSON []byte

// options configure one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    string
	spans    string
}

var scales = map[string]workload.Scale{
	"default": workload.DefaultScale,
	"test":    workload.TestScale,
}

// report is everything one run prints.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	endToEnd  map[string]float64
	layer     map[string]float64
	selfTimes map[string]time.Duration
	campaigns []*outcome
	frames    int
	digest    string
	problems  []string
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	o := options{scale: "default"}
	spec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flag.StringVar(&o.workload, "workload", "batch-3d", "workload name")
	flag.Uint64Var(&o.seed, "seed", 0, "workload seed (0 keeps the Table II profile seed)")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "measuring time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "where a traced run writes its spans (default .bench_build/spans/<workload>-<seed>.json)")
	flag.Parse()
	o.trace = *trace == 1
	if *spec {
		b, err := specJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	}
	if o.spans == "" {
		o.spans = fmt.Sprintf(".bench_build/spans/%s-%d.json", o.workload, o.seed)
	}
	rep, err := run(context.Background(), o, nil)
	if err != nil {
		fatal(err)
	}
	if err := rep.print(os.Stdout); err != nil {
		fatal(err)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(2)
}

// run executes one benchmark run: campaigns until the measuring time
// is spent. Campaign c runs on the trace of campaignSeed(seed, c), so a
// run's medians average over several traces and the first campaign is
// the seed's own trace. A traced run runs an untraced and a traced
// campaign on each trace, in alternating order, so the tracing overhead
// is measured in the same run.
func run(ctx context.Context, o options, tamper func(map[int]tbr.FrameStats)) (*report, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	sc, ok := scales[o.scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", o.scale)
	}
	sc.FrameDivisor *= w.frameDiv
	b := &bench{w: w, scale: sc, tamper: tamper}
	rep := &report{endToEnd: map[string]float64{}, layer: map[string]float64{}}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	var (
		plain, traced []*outcome
		setups        []float64
		obsRatio      float64
		start         = time.Now()
	)
	for c := 0; ; c++ {
		b.seed = campaignSeed(o.seed, c)
		b.t = tr
		if tr != nil {
			tr.campaign = 0 // set-up spans belong to no campaign
		}
		d, err := b.setup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if c == 0 && o.trace {
			b.t = nil
			if obsRatio, err = b.obsOverhead(ctx); err != nil {
				return nil, err
			}
			start = time.Now()
		}

		order := []bool{false}
		if o.trace {
			// Alternate which side runs first, so neither always runs
			// on a warmer heap.
			order = []bool{c%2 == 1, c%2 == 0}
		}
		var digests []string
		for _, withTrace := range order {
			b.t = nil
			if withTrace {
				b.t = tr
			}
			oc, err := b.campaign(ctx, len(plain)+len(traced)+1)
			if err != nil {
				return nil, err
			}
			oc.seed = b.seed
			digests = append(digests, oc.digest)
			if withTrace {
				traced = append(traced, oc)
			} else {
				plain = append(plain, oc)
			}
		}
		if len(digests) == 2 && digests[0] != digests[1] {
			rep.Failed++
			rep.problems = append(rep.problems, fmt.Sprintf("traced and untraced campaigns on seed %d reached different outputs", b.seed))
		}
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(c+1) > o.seconds {
			break
		}
	}
	b.t = nil

	rep.summarize(plain, traced, setups)
	if o.trace {
		rep.layer["obs.on_over_off"] = obsRatio
		meta := map[string]any{"workload": w.name, "seed": o.seed, "scale": o.scale}
		if err := tr.write(o.spans, meta); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}

	want := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &want); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	if o.seed == 0 {
		key := w.name + "@" + o.scale
		if want[key] != rep.digest {
			rep.Failed++
			rep.problems = append(rep.problems, fmt.Sprintf("digest %s does not match the committed %s %q", rep.digest, key, want[key]))
		}
	}
	rep.finish(o.trace)
	return rep, nil
}

// campaignSeed is the trace seed of a run's c-th campaign: the run's
// own seed first, then seeds derived from it. The same run seed always
// yields the same sequence of traces.
func campaignSeed(seed uint64, c int) uint64 {
	if c == 0 {
		return seed
	}
	return splitmix64(seed ^ splitmix64(uint64(c)))
}

// obsOverhead times full mali450 simulation with an enabled registry
// against without one, off-on-on-off so drift cancels.
func (b *bench) obsOverhead(ctx context.Context) (float64, error) {
	var off, on time.Duration
	for _, withObs := range []bool{false, true, true, false} {
		gpu := tbr.DefaultConfig()
		if withObs {
			gpu.Obs = obs.NewWith(obs.Options{TraceCapacity: -1})
		}
		t0 := time.Now()
		if _, err := tbr.SimulateAllParallelCtx(ctx, gpu, b.tr, 0, nil); err != nil {
			return 0, err
		}
		if withObs {
			on += time.Since(t0)
		} else {
			off += time.Since(t0)
		}
	}
	return on.Seconds() / off.Seconds(), nil
}

// summarize folds the campaigns into the report. Timings are medians
// over the campaigns; figures that repeat exactly for a seed (counts,
// errors, the digest) come from the first campaign, on the run's own
// seed.
func (r *report) summarize(plain, traced []*outcome, setups []float64) {
	all := append(append([]*outcome(nil), plain...), traced...)
	r.campaigns = all
	for _, oc := range all {
		r.Attempted += oc.attempted
		r.Failed += oc.failed
		r.problems = append(r.problems, oc.problems...)
	}
	var sampled, full, ratio []float64
	for _, oc := range plain {
		sampled = append(sampled, oc.sampled.Seconds())
		full = append(full, oc.full.Seconds())
		ratio = append(ratio, oc.sampled.Seconds()/oc.full.Seconds())
	}
	first := plain[0]
	r.frames, r.digest = first.frames, first.digest
	e := r.endToEnd
	e["setup_s"] = median(setups)
	e["sampled_s"] = median(sampled)
	e["full_s"] = median(full)
	e["sampled_over_full"] = median(ratio)
	e["peak_rss_mb"] = peakRSSMiB()
	e["reduction_x"] = float64(first.frames) / float64(first.reps)
	e["err_cycles_pct"] = first.errCycles
	e["err_max_pct"] = first.errMax
	e["failed_frac"] = float64(r.Failed) / float64(max(r.Attempted, 1))

	if len(traced) == 0 {
		return
	}
	for _, m := range perLayer {
		if m.exact {
			r.layer[m.Name] = traced[0].layer[m.Name]
			continue
		}
		var xs []float64
		for _, oc := range traced {
			xs = append(xs, oc.layer[m.Name])
		}
		r.layer[m.Name] = median(xs)
	}
	r.layer["workload.generate_s"] = median(setups)
	var tracedWall, plainWall []float64
	for _, oc := range traced {
		tracedWall = append(tracedWall, (oc.sampled + oc.full).Seconds())
	}
	for _, oc := range plain {
		plainWall = append(plainWall, (oc.sampled + oc.full).Seconds())
	}
	overhead := median(tracedWall) / median(plainWall)
	r.layer["trace.overhead_x"] = overhead
	r.selfTimes = selfTimes(traced[0].spans)

	// The layer calls on the blocking path must account for the sampled
	// and full times: what the spans leave uncovered may not exceed the
	// tracing overhead (plus 2% for timer granularity and noise).
	if glue := r.layer["trace.glue_pct"]; glue > 100*max(overhead-1, 0)+2 {
		r.Failed++
		r.problems = append(r.problems, fmt.Sprintf("layer spans leave %.2f%% of the blocking path uncovered", glue))
	}
}

// finish fills the JSON metrics: the gated end-to-end metrics for an
// untraced run, every per-layer metric for a traced one.
func (r *report) finish(traced bool) {
	r.Correct = r.Failed == 0
	r.Metrics = map[string]value{}
	if traced {
		for _, m := range perLayer {
			r.Metrics[m.Name] = value{r.layer[m.Name], m.Unit}
		}
		return
	}
	for _, m := range endToEnd {
		if m.gated {
			r.Metrics[m.Name] = value{r.endToEnd[m.Name], m.Unit}
		}
	}
}

// print writes the human-readable report and, last, the JSON line.
func (r *report) print(w io.Writer) error {
	fmt.Fprintf(w, "campaigns %d, frames %d, digest %s\n", len(r.campaigns), r.frames, r.digest)
	for _, oc := range r.campaigns {
		fmt.Fprintf(w, "campaign seed %-20d traced=%-5v sampled %.4f s, full %.4f s\n", oc.seed, oc.spans != nil, oc.sampled.Seconds(), oc.full.Seconds())
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "%-26s %14.6g %s\n", m.Name, r.endToEnd[m.Name], m.Unit)
	}
	fmt.Fprintf(w, "%-26s %14d frames\n", "attempted", r.Attempted)
	if len(r.layer) > 0 {
		for _, m := range perLayer {
			fmt.Fprintf(w, "%-26s %14.6g %s\n", m.Name, r.layer[m.Name], m.Unit)
		}
		names := make([]string, 0, len(r.selfTimes))
		for n := range r.selfTimes {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "self %-21s %14.6f s\n", n, r.selfTimes[n].Seconds())
		}
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
