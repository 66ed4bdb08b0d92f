package cluster

import (
	"encoding/binary"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/xmath/linalg"
	"repro/internal/xmath/stats"
)

// scanAssigner is the reference assignment step: every point scans
// every centroid, first index wins ties. It ignores the bounds seeding
// hands it and keeps none, so a search on it also runs every warm
// start's seeding as a full scan. The bounded step must reproduce it
// exactly.
type scanAssigner struct{}

func (scanAssigner) start([][]float64, []float64, []float64) {}

func (scanAssigner) lowerBounds() []float64 { return nil }

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

// lockstepCheck counts the assignment steps a lockstep assigner has
// checked and records the first divergence it saw. The runs of one BIC
// step share it from concurrent goroutines.
type lockstepCheck struct {
	t      testing.TB
	steps  atomic.Int64
	failed atomic.Bool
}

// diverged reports a divergence with t.Errorf, which is safe off the
// test goroutine; only the first one is reported.
func (c *lockstepCheck) diverged(format string, args ...any) {
	if c.failed.CompareAndSwap(false, true) {
		c.t.Errorf(format, args...)
	}
}

// lockstepAssigner runs the bounded step and the reference scan on the
// same inputs at every Lloyd iteration, the first one included (which
// the bounded step starts from seeding's bounds), and reports the first
// divergence in assignments, sizes or the changed flag.
type lockstepAssigner struct {
	check   *lockstepCheck
	bounded *bounds
}

func (l lockstepAssigner) start(centroids [][]float64, upper, lower []float64) {
	l.bounded.start(centroids, upper, lower)
}

func (l lockstepAssigner) lowerBounds() []float64 { return l.bounded.lowerBounds() }

func (l lockstepAssigner) assignAndSum(data, centroids [][]float64, assign, sizes []int, force bool) bool {
	wantAssign := append([]int(nil), assign...)
	wantSizes := make([]int, len(sizes))
	want := scanAssigner{}.assignAndSum(data, centroids, wantAssign, wantSizes, force)
	got := l.bounded.assignAndSum(data, centroids, assign, sizes, force)
	step := l.check.steps.Add(1)
	if got != want {
		l.check.diverged("step %d: changed = %v, reference scan says %v", step, got, want)
	}
	for i := range assign {
		if assign[i] != wantAssign[i] {
			l.check.diverged("step %d: point %d assigned %d, reference scan says %d", step, i, assign[i], wantAssign[i])
			break
		}
	}
	for c := range sizes {
		if sizes[c] != wantSizes[c] {
			l.check.diverged("step %d: cluster %d size %d, reference scan says %d", step, c, sizes[c], wantSizes[c])
			break
		}
	}
	return got
}

// lockstep installs the lockstep assigner as the k-means assignment
// step for the rest of the test and returns its check, whose steps
// count the assignment steps checked so far.
func lockstep(t testing.TB) *lockstepCheck {
	check := &lockstepCheck{t: t}
	prev := newAssigner
	newAssigner = func(k, d int) assigner {
		return lockstepAssigner{check: check, bounded: newBounds(k, d)}
	}
	t.Cleanup(func() { newAssigner = prev })
	return check
}

// withScan runs f with the reference scan as the assignment step.
func withScan(f func()) {
	prev := newAssigner
	newAssigner = func(k, d int) assigner { return scanAssigner{} }
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
	check := lockstep(t)
	got, gotErr := Search(data, cfg, stats.NewRNG(seed))
	if check.steps.Load() == 0 {
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
// final scores and the selected clustering. Direct runs over unfiltered
// floats (NaN, ±Inf, overflow), a fresh one and a warm start carrying
// its predecessor's assignment and bounds, check the same in lockstep.
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
			check := lockstep(t)
			got := KMeans(data, k, stats.NewRNG(seed), 30)
			var want Result
			withScan(func() { want = KMeans(data, k, stats.NewRNG(seed), 30) })
			if check.steps.Load() == 0 || !sameResult(got, want) {
				t.Fatalf("KMeans(k=%d) on raw floats differs from the reference scan", k)
			}
			if k > 1 {
				checkWarmEquivalent(t, data, k, seed)
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
// a converged clustering of well-separated blobs, the bounds seeding
// computes for those centroids, carried through one assignment step,
// must prove almost every point's assignment, so the scan is skipped.
func TestBoundsProveSeparatedClusters(t *testing.T) {
	data, _ := blobs(stats.NewRNG(5), 6, 80, 16, 40)
	res := KMeans(data, 6, stats.NewRNG(1), 0)
	// With all six centroids given, seeding draws nothing.
	centroids, assign, upper, lower := plusPlus(data, res.Centroids, 6, nil, nil)
	b := newBounds(6, 16)
	b.start(centroids, upper, lower)
	sizes := make([]int, 6)
	b.assignAndSum(data, centroids, assign, sizes, true)
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

// checkWarmEquivalent runs a (k-1)-clustering and the warm start from it
// to k in lockstep, the warm start carrying the assignment and bounds,
// and compares both with KMeans and KMeansSeeded on the reference scan,
// which carries nothing. It returns the carry the warm start began from.
func checkWarmEquivalent(t *testing.T, data [][]float64, k int, seed uint64) carry {
	t.Helper()
	check := lockstep(t)
	prev := kmeans(data, k-1, stats.NewRNG(seed), 30, nil, nil)
	got := kmeans(data, k, stats.NewRNG(seed+1), 30, nil, &prev)
	var wantPrev, want Result
	withScan(func() {
		wantPrev = KMeans(data, k-1, stats.NewRNG(seed), 30)
		want = KMeansSeeded(data, k, stats.NewRNG(seed+1), 30, wantPrev.Centroids)
	})
	if check.steps.Load() == 0 || prev.lower == nil {
		t.Fatal("lockstep assigner never ran")
	}
	if !sameResult(prev.res, wantPrev) {
		t.Fatalf("KMeans(k=%d) differs from the reference scan", k-1)
	}
	if !sameResult(got.res, want) {
		t.Fatalf("warm start to k=%d differs from KMeansSeeded on the reference scan", k)
	}
	return prev
}

// TestWarmStartTakesFromNeighbours: at D=136, a warm start's new
// centroid lands between two clusters and takes points from both on the
// first assignment step. For those points the carried assignment is
// stale and only the new centroid's distance shows it; the first step
// must still match the scan.
func TestWarmStartTakesFromNeighbours(t *testing.T) {
	// Two tight, heavy blobs and a light band stretched along the axis
	// between them: two centroids split the band, and k-means++ draws
	// the third centroid from it.
	rng := stats.NewRNG(11)
	const d = 136
	var data [][]float64
	add := func(n int, at, width float64) {
		for i := 0; i < n; i++ {
			p := make([]float64, d)
			for j := range p {
				p[j] = rng.Norm(0, 0.3)
			}
			p[0] += at + width*(rng.Float64()-0.5)
			data = append(data, p)
		}
	}
	add(200, -20, 0)
	add(60, 0, 16)
	add(200, 20, 0)

	prev := checkWarmEquivalent(t, data, 3, 5)
	var centroids [][]float64
	for _, c := range prev.res.Centroids {
		centroids = append(centroids, clone(c))
	}
	_, assign, _, _ := plusPlus(data, centroids, 3, stats.NewRNG(6), &prev)
	taken := map[int]int{}
	for i, a := range assign {
		if a == 2 {
			taken[prev.res.Assign[i]]++
		}
	}
	if len(taken) < 2 {
		t.Fatalf("the new centroid took points from clusters %v; the fixture must make it take from both", taken)
	}
}

// TestWarmStartNonFiniteFallback: points whose carried distance is not
// finite (a NaN or infinite coordinate, a NaN centroid, an overflowing
// square) must be scanned against every seed, so the draws and the
// first step still match the scan.
func TestWarmStartNonFiniteFallback(t *testing.T) {
	data, _ := blobs(stats.NewRNG(3), 4, 20, 3, 10)
	data = append(data,
		[]float64{math.NaN(), 0, 0},
		[]float64{math.Inf(1), 1, 1},
		[]float64{1e200, 0, 0},
		[]float64{-1e200, 5, 5},
	)
	prev := checkWarmEquivalent(t, data, 5, 9)
	fallbacks := 0
	for i, x := range data {
		if !finite(linalg.SquaredDistance(x, prev.res.Centroids[prev.res.Assign[i]])) {
			fallbacks++
		}
	}
	if fallbacks == 0 {
		t.Fatal("every carried distance is finite; the fixture must exercise the full-scan fallback")
	}
}
