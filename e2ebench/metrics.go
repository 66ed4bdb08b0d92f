package main

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metric names one figure the benchmark reports. Bound is the share of
// the baseline median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// gated end-to-end metrics repeat within their bound across seeds
	// and go into BENCHMARK.json; the others are printed on every run
	// but are deterministic per seed and may sit at zero.
	gated bool
	// exact per-layer metrics repeat exactly for a seed; a run reports
	// them from its first campaign rather than as a median.
	exact bool
}

// endToEnd are the figures a MEGsim user sees, printed by every run.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, gated: true},
	{Name: "sampled_s", Unit: "s", Better: "lower", Bound: 0.24, gated: true},
	{Name: "full_s", Unit: "s", Better: "lower", Bound: 0.24, gated: true},
	{Name: "sampled_over_full", Unit: "ratio", Better: "lower", Bound: 0.24, gated: true},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.2, gated: true},
	{Name: "reduction_x", Unit: "x", Better: "higher"},
	{Name: "err_cycles_pct", Unit: "%", Better: "lower"},
	{Name: "err_max_pct", Unit: "%", Better: "lower"},
	{Name: "failed_frac", Unit: "ratio", Better: "lower"},
}

// perLayer are the traced run's figures, one group per layer, in the
// order the campaign calls the layers. A layer a workload never calls
// reports zero work and zero time.
var perLayer = []metric{
	{Name: "workload.generate_s", Unit: "s", Better: "lower"},
	{Name: "workload.frames", Unit: "count", Better: "higher", exact: true},
	{Name: "workload.draws", Unit: "count", Better: "higher", exact: true},
	{Name: "funcsim.run_s", Unit: "s", Better: "lower"},
	{Name: "funcsim.cores_used", Unit: "cores", Better: "higher"},
	{Name: "funcsim.fragments", Unit: "count", Better: "higher", exact: true},
	{Name: "funcsim.ns_per_fragment", Unit: "ns", Better: "lower"},
	{Name: "funcsim.alloc_mb", Unit: "MiB", Better: "lower"},
	{Name: "funcsim.stream_profile_s", Unit: "s", Better: "lower"},
	{Name: "core.features_s", Unit: "s", Better: "lower"},
	{Name: "core.dims", Unit: "count", Better: "lower", exact: true},
	{Name: "core.select_s", Unit: "s", Better: "lower"},
	{Name: "core.select_alloc_mb", Unit: "MiB", Better: "lower"},
	{Name: "core.k_evaluated", Unit: "count", Better: "lower", exact: true},
	{Name: "core.k_chosen", Unit: "count", Better: "lower", exact: true},
	{Name: "cluster.kmeans.runs", Unit: "count", Better: "lower", exact: true},
	{Name: "cluster.kmeans.iterations", Unit: "count", Better: "lower", exact: true},
	{Name: "core.estimate_s", Unit: "s", Better: "lower"},
	{Name: "core.reduction_x", Unit: "x", Better: "higher", exact: true},
	{Name: "core.err_cycles_pct", Unit: "%", Better: "lower", exact: true},
	{Name: "core.err_max_pct", Unit: "%", Better: "lower", exact: true},
	{Name: "tbr.reps_s", Unit: "s", Better: "lower"},
	{Name: "tbr.rep_frames", Unit: "count", Better: "lower", exact: true},
	{Name: "tbr.full_s", Unit: "s", Better: "lower"},
	{Name: "tbr.cores_used", Unit: "cores", Better: "higher"},
	{Name: "tbr.host_ns_per_kcycle", Unit: "ns", Better: "lower"},
	{Name: "tbr.full_alloc_mb", Unit: "MiB", Better: "lower"},
	{Name: "tbr.sim_cycles", Unit: "count", Better: "lower", exact: true},
	{Name: "tbr.dram_accesses", Unit: "count", Better: "lower", exact: true},
	{Name: "stream.ingest_s", Unit: "s", Better: "lower"},
	{Name: "stream.finalize_s", Unit: "s", Better: "lower"},
	{Name: "stream.strata", Unit: "count", Better: "lower", exact: true},
	{Name: "stream.merges", Unit: "count", Better: "lower", exact: true},
	{Name: "stream.peak_vectors", Unit: "count", Better: "lower", exact: true},
	{Name: "resilience.supervise_s", Unit: "s", Better: "lower"},
	{Name: "resilience.frames_ok", Unit: "count", Better: "higher", exact: true},
	{Name: "resilience.retries", Unit: "count", Better: "lower", exact: true},
	{Name: "resilience.quarantined", Unit: "count", Better: "lower", exact: true},
	{Name: "obs.on_over_off", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_x", Unit: "ratio", Better: "lower"},
	{Name: "trace.glue_pct", Unit: "%", Better: "lower"},
}

// benchSpec is the BENCHMARK.json document.
type benchSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metric      `json:"end_to_end"`
	PerLayer   []metric      `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one run measures.
const runSeconds = 30

// specJSON renders BENCHMARK.json from the tables above.
func specJSON() ([]byte, error) {
	s := benchSpec{
		Command:    []string{"bash", "e2ebench/run.sh"},
		Paths:      []string{"e2ebench"},
		RunSeconds: runSeconds,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, workloadDoc{w.name, w.why})
	}
	for _, m := range endToEnd {
		if m.gated {
			s.EndToEnd = append(s.EndToEnd, m)
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocatedBytes is the heap memory allocated so far. Unlike
// runtime.ReadMemStats it does not stop the world.
func allocatedBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
