package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gltrace"
	"repro/internal/tbr"
	"repro/internal/workload"
)

func traceBytes(t *testing.T, tr *gltrace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func seeded(t *testing.T, w workloadSpec, seed uint64) *gltrace.Trace {
	t.Helper()
	sc := workload.TestScale
	sc.FrameDivisor *= w.frameDiv
	tr, err := generate(w, sc, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// A seed changes what the frames draw but not the frame count, the
// shaders or the meshes; the default seed is the Table II profile's.
func TestSeedKeepsShape(t *testing.T) {
	for _, w := range workloads {
		table, err := workload.Get(w.alias)
		if err != nil {
			t.Fatal(err)
		}
		a, b, def := seeded(t, w, 1), seeded(t, w, 2), seeded(t, w, 0)
		if a.NumFrames() != b.NumFrames() || a.NumFrames() != def.NumFrames() {
			t.Errorf("%s: frame counts %d, %d, %d differ across seeds", w.name, a.NumFrames(), b.NumFrames(), def.NumFrames())
		}
		for _, tr := range []*gltrace.Trace{a, b} {
			if !reflect.DeepEqual(tr.VertexShaders, def.VertexShaders) || !reflect.DeepEqual(tr.FragmentShaders, def.FragmentShaders) ||
				!reflect.DeepEqual(tr.Meshes, def.Meshes) {
				t.Errorf("%s: a seed changed the shaders or meshes", w.name)
			}
		}
		if reflect.DeepEqual(a.Frames, b.Frames) {
			t.Errorf("%s: seeds 1 and 2 generated identical frames", w.name)
		}

		// Seed 0 starts with the Table II profile's own frames, and a
		// one-segment workload is exactly the Table II trace.
		sc := workload.TestScale
		sc.FrameDivisor *= w.frameDiv * w.segments
		want, err := workload.Generate(table, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(def.Frames[:want.NumFrames()], want.Frames) {
			t.Errorf("%s: seed 0 does not start with the Table II frames", w.name)
		}
		if w.segments == 1 && !bytes.Equal(traceBytes(t, def), traceBytes(t, want)) {
			t.Errorf("%s: seed 0 is not the Table II trace", w.name)
		}
	}
}

func testOptions(t *testing.T, w workloadSpec, trace bool) options {
	return options{
		workload: w.name,
		trace:    trace,
		scale:    "test",
		spans:    filepath.Join(t.TempDir(), "spans.json"),
	}
}

// Every run prints every end-to-end metric with its unit and passes its
// output checks; the last line is the JSON result with the gated
// metrics, or every per-layer metric when traced.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			opts := testOptions(t, w, traced)
			rep, err := run(context.Background(), opts, nil)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			var out bytes.Buffer
			if err := rep.print(&out); err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("%s traced=%v: output checks failed:\n%s", w.name, traced, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			for _, m := range endToEnd {
				if !hasLine(lines, m.Name, m.Unit) {
					t.Errorf("%s: %s not printed with unit %s", w.name, m.Name, m.Unit)
				}
			}
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.name, err)
			}
			if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
				t.Fatalf("%s: result keys %v", w.name, res)
			}
			want := perLayer
			if !traced {
				want = nil
				for _, m := range endToEnd {
					if m.gated {
						want = append(want, m)
					}
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := rep.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s: metric %s missing or without unit %s", w.name, m.Name, m.Unit)
				}
			}
			if traced {
				var doc struct{ Spans []span }
				b, err := os.ReadFile(opts.spans)
				if err != nil || json.Unmarshal(b, &doc) != nil || len(doc.Spans) == 0 {
					t.Errorf("%s: traced run wrote no spans: %v", w.name, err)
				}
				if rep.Metrics["tbr.sim_cycles"].Value <= 0 || rep.Metrics["trace.overhead_x"].Value <= 0 || rep.Metrics["obs.on_over_off"].Value <= 0 {
					t.Errorf("%s: traced run lacks tbr, obs or trace figures", w.name)
				}
			}
		}
	}
}

func hasLine(lines []string, name, unit string) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}

// Corrupting one representative's statistics must fail the run, on
// the batch and the streaming path, traced or not.
func TestCorruptRepresentativeFails(t *testing.T) {
	corrupt := func(reps map[int]tbr.FrameStats) {
		for f, st := range reps {
			st.Cycles++
			reps[f] = st
			return
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := run(context.Background(), testOptions(t, w, traced), corrupt)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Correct || rep.Failed == 0 {
				t.Errorf("%s traced=%v: corrupted representative passed the output checks", w.name, traced)
			}
		}
	}
}

// The committed BENCHMARK.json is what -spec prints.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with: bash e2ebench/run.sh -spec > BENCHMARK.json")
	}
}
