package cluster

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/xmath/linalg"
	"repro/internal/xmath/stats"
)

// scanAssigner is the reference assignment step: every point scans
// every centroid, first index wins ties. The bounded step must
// reproduce it exactly.
type scanAssigner struct{}

func (scanAssigner) assignAndSum(data, centroids [][]float64, assign, sizes []int, force bool) bool {
	changed := false
	for i, x := range data {
		best, bestD := 0, math.Inf(1)
		for c := range centroids {
			if dist := linalg.SquaredDistance(x, centroids[c]); dist < bestD {
				best, bestD = c, dist
			}
		}
		if assign[i] != best {
			changed = true
			assign[i] = best
		}
	}
	for i := range sizes {
		sizes[i] = 0
	}
	for _, a := range assign {
		sizes[a]++
	}
	return changed || force
}

// lockstepAssigner runs the bounded step and the reference scan on the
// same inputs at every Lloyd iteration and fails the test on the first
// divergence in assignments, sizes or the changed flag.
type lockstepAssigner struct {
	t       testing.TB
	bounded *bounds
	steps   *int
}

func (l lockstepAssigner) assignAndSum(data, centroids [][]float64, assign, sizes []int, force bool) bool {
	l.t.Helper()
	wantAssign := append([]int(nil), assign...)
	wantSizes := make([]int, len(sizes))
	want := scanAssigner{}.assignAndSum(data, centroids, wantAssign, wantSizes, force)
	got := l.bounded.assignAndSum(data, centroids, assign, sizes, force)
	*l.steps++
	if got != want {
		l.t.Fatalf("step %d: changed = %v, reference scan says %v", *l.steps, got, want)
	}
	for i := range assign {
		if assign[i] != wantAssign[i] {
			l.t.Fatalf("step %d: point %d assigned %d, reference scan says %d", *l.steps, i, assign[i], wantAssign[i])
		}
	}
	for c := range sizes {
		if sizes[c] != wantSizes[c] {
			l.t.Fatalf("step %d: cluster %d size %d, reference scan says %d", *l.steps, c, sizes[c], wantSizes[c])
		}
	}
	return got
}

// lockstep installs the lockstep assigner as KMeansSeeded's assignment
// step for the rest of the test and returns the number of assignment
// steps it has checked so far.
func lockstep(t testing.TB) *int {
	steps := new(int)
	prev := newAssigner
	newAssigner = func(n, k, d int) assigner {
		return lockstepAssigner{t: t, bounded: newBounds(n, k, d), steps: steps}
	}
	t.Cleanup(func() { newAssigner = prev })
	return steps
}

// withScan runs f with the reference scan as the assignment step.
func withScan(f func()) {
	prev := newAssigner
	newAssigner = func(n, k, d int) assigner { return scanAssigner{} }
	defer func() { newAssigner = prev }()
	f()
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameResult reports bit-for-bit equality of two clusterings.
func sameResult(a, b Result) bool {
	if a.K != b.K || a.Iterations != b.Iterations || !sameFloat(a.WCSS, b.WCSS) ||
		len(a.Assign) != len(b.Assign) || len(a.Centroids) != len(b.Centroids) {
		return false
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			return false
		}
	}
	for c := range a.Centroids {
		if a.Sizes[c] != b.Sizes[c] || len(a.Centroids[c]) != len(b.Centroids[c]) {
			return false
		}
		for j := range a.Centroids[c] {
			if !sameFloat(a.Centroids[c][j], b.Centroids[c][j]) {
				return false
			}
		}
	}
	return true
}

// checkSearchEquivalent runs Search with the bounded step in lockstep
// against the reference scan, then compares the whole SearchResult with
// a run on the reference scan alone.
func checkSearchEquivalent(t *testing.T, data [][]float64, cfg SearchConfig, seed uint64) {
	t.Helper()
	steps := lockstep(t)
	got, gotErr := Search(data, cfg, stats.NewRNG(seed))
	if *steps == 0 {
		t.Fatal("lockstep assigner never ran")
	}
	var want SearchResult
	var wantErr error
	withScan(func() { want, wantErr = Search(data, cfg, stats.NewRNG(seed)) })
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("Search error %v, reference scan %v", gotErr, wantErr)
	}
	if got.StoppedAt != want.StoppedAt || len(got.Scores) != len(want.Scores) {
		t.Fatalf("explored %d scores (stopped at %d), reference scan %d (stopped at %d)",
			len(got.Scores), got.StoppedAt, len(want.Scores), want.StoppedAt)
	}
	for k := range got.Scores {
		if !sameFloat(got.Scores[k], want.Scores[k]) {
			t.Fatalf("BIC(k=%d) = %v, reference scan %v", k+1, got.Scores[k], want.Scores[k])
		}
	}
	if !sameResult(got.Best, want.Best) {
		t.Fatalf("selected clustering differs from the reference scan's (k=%d vs %d)", got.Best.K, want.Best.K)
	}
}

// rawDataset decodes bytes like fuzzDataset but keeps NaN, ±Inf and
// huge magnitudes: the bounded step must fall back to the scan on
// every non-finite or overflowing distance rather than skip on it.
func rawDataset(raw []byte) [][]float64 {
	if len(raw) < 9 {
		return nil
	}
	dim := int(raw[0]&0x03) + 1
	dupes := int(raw[0]>>2&0x07) + 1
	raw = raw[1:]
	var data [][]float64
	for len(raw) >= 8*dim && len(data) < 256 {
		vec := make([]float64, dim)
		for d := range vec {
			vec[d] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*d:]))
		}
		raw = raw[8*dim:]
		for i := 0; i < dupes; i++ {
			data = append(data, vec)
		}
	}
	return data
}

// encodeDataset is the inverse of fuzzDataset's layout for finite
// coordinates: dim in 1..4, every point repeated dupes (1..8) times.
func encodeDataset(dim, dupes int, coords ...float64) []byte {
	out := []byte{byte(dim-1) | byte(dupes-1)<<2}
	for _, v := range coords {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// FuzzBoundedAssign proves the Hamerly-bounded assignment step
// equivalent to the full scan: at every Lloyd iteration of every k-means
// run inside a BIC search the assignments must match, and so must the
// final scores and the selected clustering. A direct KMeansSeeded run
// over unfiltered floats (NaN, ±Inf, overflow) checks the same in
// lockstep.
func FuzzBoundedAssign(f *testing.F) {
	addSearchSeeds(f)
	// Duplicate and tie data from the degenerate-input tests: mass
	// duplicates, more clusters than distinct points, and points exactly
	// equidistant from two locations.
	f.Add(encodeDataset(2, 5, 0, 0, 10, 0, 0, 10), uint64(1))
	f.Add(encodeDataset(2, 2, 1, 2, 1, 2, 1, 2, 8, 9), uint64(3))
	f.Add(encodeDataset(3, 8, 1, 1, 1, 9, 9, 9, 5, 1, 7), uint64(7))
	f.Add(encodeDataset(1, 1, 0, 1, 2, 3, 4, 5, 6, 7), uint64(11))
	f.Add(encodeDataset(2, 1, -1, 0, 1, 0, 0, 0, 0, 1, 0, -1), uint64(5))

	f.Fuzz(func(t *testing.T, raw []byte, seed uint64) {
		if data := fuzzDataset(raw); len(data) > 0 {
			cfg := SearchConfig{Threshold: 0.85, MaxK: 8, MaxIterations: 30, Restarts: 2, Patience: 2}
			checkSearchEquivalent(t, data, cfg, seed)
		}
		if data := rawDataset(raw); len(data) > 0 {
			k := 1 + int(seed%uint64(min(len(data), 8)))
			steps := lockstep(t)
			got := KMeans(data, k, stats.NewRNG(seed), 30)
			var want Result
			withScan(func() { want = KMeans(data, k, stats.NewRNG(seed), 30) })
			if *steps == 0 || !sameResult(got, want) {
				t.Fatalf("KMeans(k=%d) on raw floats differs from the reference scan", k)
			}
		}
	})
}

// TestBoundedAssignMatchesScan covers what the fuzz datasets cannot
// reach: many dimensions (the D=136 regime of real feature vectors),
// the chunk-parallel path, tight overlapping clusters where bounds
// rarely prove anything, and a full default search with warm starts.
func TestBoundedAssignMatchesScan(t *testing.T) {
	rng := stats.NewRNG(2024)
	gen := func(n, d, centers int, spread float64) [][]float64 {
		data := make([][]float64, n)
		for i := range data {
			data[i] = make([]float64, d)
			for j := range data[i] {
				data[i][j] = rng.Norm(float64((i%centers)*(j%5)), spread)
			}
		}
		return data
	}
	cases := []struct {
		name string
		data [][]float64
		cfg  SearchConfig
	}{
		{"highdim-blobs", gen(400, 136, 9, 0.5), DefaultSearchConfig()},
		{"overlapping", gen(300, 12, 4, 3), DefaultSearchConfig()},
		// n*k*d crosses parallelThreshold with n > 2*parallelChunk, so
		// assignment and summation both run chunk-parallel.
		{"parallel-chunks", gen(1500, 64, 12, 1), SearchConfig{Threshold: 0.85, MaxK: 30, Restarts: 1, Patience: 2}},
		{"duplicates", append(dup([]float64{1, 1, 1}, 40), append(dup([]float64{9, 9, 9}, 3), dup([]float64{5, 1, 7}, 2)...)...), DefaultSearchConfig()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkSearchEquivalent(t, tc.data, tc.cfg, 99)
		})
	}
}

// TestBoundsProveSeparatedClusters: the bounds must actually prune. At
// a converged clustering of well-separated blobs, a second assignment
// step at the same centroids must find almost every point's assignment
// proved by its bounds, so the scan is skipped.
func TestBoundsProveSeparatedClusters(t *testing.T) {
	data, _ := blobs(stats.NewRNG(5), 6, 80, 16, 40)
	res := KMeans(data, 6, stats.NewRNG(1), 0)
	b := newBounds(len(data), 6, 16)
	assign := append([]int(nil), res.Assign...)
	sizes := make([]int, 6)
	b.assignAndSum(data, res.Centroids, assign, sizes, true)
	b.assignAndSum(data, res.Centroids, assign, sizes, false)
	proved := 0
	for i := range data {
		if b.proves(b.upper[i], b.lower[i]) {
			proved++
		}
	}
	if proved < len(data)*9/10 {
		t.Fatalf("bounds proved only %d/%d assignments on separated blobs", proved, len(data))
	}
}
