// Package cluster implements the clustering machinery of Section III-E
// and III-F of the paper: Lloyd's k-means with k-means++ seeding, the
// Bayesian Information Criterion score of Eq. (5)-(6), and the
// iterative cluster-count search with the spread-threshold selection
// rule (T = 0.85).
package cluster

import (
	"fmt"
	"math"

	"repro/internal/pool"
	"repro/internal/xmath/linalg"
	"repro/internal/xmath/stats"
)

// Result is one clustering of a dataset.
type Result struct {
	// K is the number of clusters.
	K int
	// Centroids[k] is the mean of cluster k.
	Centroids [][]float64
	// Assign[i] is the cluster of point i.
	Assign []int
	// Sizes[k] is the number of points in cluster k.
	Sizes []int
	// WCSS is the within-cluster sum of squares (Eq. 4's objective).
	WCSS float64
	// Iterations is the number of Lloyd iterations performed.
	Iterations int
}

// DefaultMaxIterations bounds Lloyd's algorithm.
const DefaultMaxIterations = 100

// KMeans clusters data into k groups using k-means++ seeding and Lloyd
// iterations, deterministically in rng. maxIter <= 0 selects
// DefaultMaxIterations. It panics if k < 1, data is empty, k > len(data),
// or rows are ragged.
func KMeans(data [][]float64, k int, rng *stats.RNG, maxIter int) Result {
	return KMeansSeeded(data, k, rng, maxIter, nil)
}

// KMeansSeeded is KMeans with optional initial centroids. When fewer
// than k seeds are given the remainder are drawn k-means++-style from
// the points farthest from the existing seeds; extra seeds are ignored.
// Warm-starting from a (k-1)-clustering's centroids makes WCSS decrease
// (near-)monotonically in k, which the BIC search relies on.
func KMeansSeeded(data [][]float64, k int, rng *stats.RNG, maxIter int, seeds [][]float64) Result {
	return kmeans(data, k, rng, maxIter, seeds, nil).res
}

// carry is one finished k-means run as the next step of a BIC sweep
// sees it: the clustering, plus the Hamerly lower bounds its assignment
// step left, which hold at its final centroids (nil when the step keeps
// none).
type carry struct {
	res   Result
	lower []float64
}

// kmeans is KMeansSeeded, optionally warm-started from a finished run
// with fewer than k clusters. A non-nil from replaces seeds with from's
// centroids; when from has bounds, seeding and the first assignment
// step start from its assignment and bounds instead of rescanning every
// point against every seed. Either way the result is bit-identical to
// KMeansSeeded(data, k, rng, maxIter, from.res.Centroids).
func kmeans(data [][]float64, k int, rng *stats.RNG, maxIter int, seeds [][]float64, from *carry) carry {
	n := len(data)
	if n == 0 {
		panic("cluster: KMeans on empty dataset")
	}
	if k < 1 || k > n {
		panic(fmt.Sprintf("cluster: k=%d out of range [1,%d]", k, n))
	}
	d := len(data[0])
	for i, row := range data {
		if len(row) != d {
			panic(fmt.Sprintf("cluster: row %d has %d dims, want %d", i, len(row), d))
		}
	}
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	if from != nil {
		seeds = from.res.Centroids
		if from.lower == nil {
			from = nil
		}
	}

	centroids := make([][]float64, 0, k)
	if len(seeds) == 0 {
		centroids = append(centroids, clone(data[rng.Intn(n)]))
	}
	for _, s := range seeds {
		if len(centroids) == k {
			break
		}
		if len(s) != d {
			panic(fmt.Sprintf("cluster: seed has %d dims, want %d", len(s), d))
		}
		centroids = append(centroids, clone(s))
	}
	centroids, assign, upper, lower := plusPlus(data, centroids, k, rng, from)
	sizes := make([]int, k)
	res := Result{K: k}
	bnd := newAssigner(k, d)
	bnd.start(centroids, upper, lower)

	for iter := 0; iter < maxIter; iter++ {
		changed := bnd.assignAndSum(data, centroids, assign, sizes, iter == 0)
		// Update step: per-chunk partial sums merged in chunk order, so
		// the result is bit-identical regardless of parallelism.
		next := sumByCluster(data, assign, k, d)
		// taken marks points already consumed as reseeds this iteration:
		// when several clusters empty out at once, each must get a
		// DISTINCT farthest point — handing them all the same one (the
		// scan result never changes within the iteration) creates
		// duplicate centroids that keep a cluster empty forever.
		var taken map[int]bool
		for c := range next {
			if sizes[c] == 0 {
				// Empty cluster: reseed on the farthest unclaimed point
				// from its current centroid, the standard Lloyd repair.
				far, farD := -1, -1.0
				for i, x := range data {
					if taken[i] {
						continue
					}
					if dist := linalg.SquaredDistance(x, centroids[assign[i]]); dist > farD {
						far, farD = i, dist
					}
				}
				if far < 0 {
					// More empty clusters than points (mass-duplicate
					// data): no repair exists; keep the old centroid
					// rather than fabricating one.
					copy(next[c], centroids[c])
					continue
				}
				if taken == nil {
					taken = make(map[int]bool)
				}
				taken[far] = true
				copy(next[c], data[far])
				// Only count the repair as progress when it actually
				// moved the centroid; on degenerate data the same
				// reseed would otherwise churn until maxIter.
				if !equalVec(next[c], centroids[c]) {
					changed = true
				}
				continue
			}
			inv := 1 / float64(sizes[c])
			for j := range next[c] {
				next[c][j] *= inv
			}
		}
		centroids = next
		res.Iterations = iter + 1
		if !changed && iter > 0 {
			break
		}
	}

	// Final stats.
	bnd.assignAndSum(data, centroids, assign, sizes, true)
	wcss := 0.0
	for i, x := range data {
		wcss += linalg.SquaredDistance(x, centroids[assign[i]])
	}
	res.Centroids = centroids
	res.Assign = assign
	res.Sizes = sizes
	res.WCSS = wcss
	return carry{res: res, lower: bnd.lowerBounds()}
}

// parallelChunk is the row granularity of the parallel assignment step.
const parallelChunk = 512

// parallelThreshold is the per-iteration work (n*k*d multiplications)
// above which k-means fans out across cores. Below it, goroutine
// overhead dominates.
const parallelThreshold = 1 << 21

// Distances below minBound or above maxBound never license a skip: their
// squares can underflow into subnormals (where rounding error is no
// longer relative) or overflow to +Inf (where every comparison ties and
// the scan's first-index rule decides). tinyBound pads every bound for
// the absolute error subnormal squares can contribute.
const (
	minBound  = 1e-100
	maxBound  = 1e150
	tinyBound = 1e-150
)

// bounds carries Hamerly's per-point distance bounds across the Lloyd
// iterations of one k-means run, starting from those its seeding left.
// upper[i] is at least the distance from point i to its assigned
// centroid; lower[i] is at most its distance to any other centroid. When upper[i] is strictly below
// lower[i], the assigned centroid is the unique nearest one and the
// k-distance scan is skipped.
//
// A skip must reproduce exactly what the scan would have chosen,
// including over computed (rounded) squared distances, so every bound
// is kept conservative by a relative slack far above the rounding error
// of a D-term sum of squares, plus tinyBound of absolute padding, and a
// skip requires the strict inequality with that slack on both sides.
// Non-finite distances (NaN or Inf data, overflowed centroids) never
// produce a usable bound: the point is rescanned. The assignment
// sequence is therefore identical to the unbounded scan's, and so are
// sizes, centroids, WCSS and everything downstream.
type bounds struct {
	upper, lower []float64
	// prev holds the centroids of the last assignment step (nil before
	// the first); drift[c] bounds how far centroid c has moved since.
	prev  [][]float64
	drift []float64
	tol
}

// assigner is one k-means run's Lloyd assignment step.
type assigner interface {
	// start hands the first step the bounds seeding left (see
	// plusPlus), which hold at centroids. A step that keeps no bounds
	// ignores them.
	start(centroids [][]float64, upper, lower []float64)
	assignAndSum(data, centroids [][]float64, assign, sizes []int, force bool) bool
	// lowerBounds returns the lower bounds the last step left, which
	// hold at its centroids, or nil if the step keeps none.
	lowerBounds() []float64
}

// newAssigner builds the assignment step for points of d dims in k
// clusters. It is a variable only so tests can run a reference scan in
// lockstep with the bounded one.
var newAssigner = func(k, d int) assigner { return newBounds(k, d) }

// newBounds builds a bounded step; its bounds come from start.
func newBounds(k, d int) *bounds {
	return &bounds{
		drift: make([]float64, k),
		tol:   tolerance(d),
	}
}

// start adopts seeding's bounds. They hold at centroids, so the first
// step sees zero drift.
func (b *bounds) start(centroids [][]float64, upper, lower []float64) {
	b.prev, b.upper, b.lower = centroids, upper, lower
}

func (b *bounds) lowerBounds() []float64 { return b.lower }

// tol is the relative slack that keeps bounds conservative over
// computed (rounded) distances in d dimensions.
type tol float64

// tolerance is the slack for d dimensions. Rounding error of a d-term
// sum of squares is about (d+2) units of 2^-53; the slack is eight
// times that, floored for tiny d.
func tolerance(d int) tol { return tol(float64(d+16) * 0x1p-50) }

// up inflates a computed distance into a conservative upper bound.
func (s tol) up(x float64) float64 { return x*(1+float64(s)) + tinyBound }

// down deflates a computed distance into a conservative lower bound.
func (s tol) down(x float64) float64 { return max(x*(1-float64(s))-tinyBound, 0) }

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return x-x == 0 }

// proves reports whether upper bound u strictly proves a point's
// assigned centroid is its unique nearest under lower bound l.
func (s tol) proves(u, l float64) bool {
	return u <= maxBound && l >= minBound && u*(1+float64(s)) < l*(1-float64(s))
}

// assignAndSum performs the k-means assignment step, filling assign and
// sizes, and reports whether any assignment changed (always true when
// force is set). Points whose bounds prove their assignment are
// skipped; every other point runs the full squared-distance scan with
// the first-index tie rule. Deterministic regardless of parallelism:
// each point's assignment and bounds are independent, and sizes are
// recounted from the final assignment.
func (b *bounds) assignAndSum(data [][]float64, centroids [][]float64, assign []int, sizes []int, force bool) bool {
	n := len(data)
	k := len(centroids)
	d := 0
	if n > 0 {
		d = len(data[0])
	}

	// Move the bounds to the current centroids: upper grows by the
	// assigned centroid's drift, lower shrinks by the largest drift of
	// any other centroid. A non-finite drift invalidates every bound.
	valid := b.prev != nil
	m1, m2, m1c := 0.0, 0.0, -1
	for c := 0; valid && c < k; c++ {
		dr := math.Sqrt(linalg.SquaredDistance(b.prev[c], centroids[c]))
		if !finite(dr) {
			valid = false
			break
		}
		dr = b.up(dr)
		b.drift[c] = dr
		switch {
		case dr > m1:
			m1, m2, m1c = dr, m1, c
		case dr > m2:
			m2 = dr
		}
	}
	b.prev = centroids

	assignRange := func(lo, hi int) bool {
		changed := false
		for i := lo; i < hi; i++ {
			x := data[i]
			a := assign[i]
			d2a := math.NaN()
			if valid {
				u := b.up(b.upper[i] + b.drift[a])
				other := m1
				if a == m1c {
					other = m2
				}
				l := b.down(b.lower[i] - other)
				b.upper[i], b.lower[i] = u, l
				if b.proves(u, l) {
					continue
				}
				// Tighten the upper bound to the exact distance and
				// retry before paying for the full scan.
				d2a = linalg.SquaredDistance(x, centroids[a])
				if finite(d2a) {
					b.upper[i] = b.up(math.Sqrt(d2a))
					if b.proves(b.upper[i], l) {
						continue
					}
				}
			}

			best, bestD := 0, math.Inf(1)
			secondD := math.Inf(1)
			ok := true
			for c := range centroids {
				var dist float64
				if c == a && valid {
					dist = d2a // the identical value the scan would compute
				} else {
					dist = linalg.SquaredDistance(x, centroids[c])
				}
				if !finite(dist) {
					ok = false
				}
				if dist < bestD {
					best, bestD, secondD = c, dist, bestD
				} else if dist < secondD {
					secondD = dist
				}
			}
			if ok {
				b.upper[i] = b.up(math.Sqrt(bestD))
				b.lower[i] = b.down(math.Sqrt(secondD))
			} else {
				b.upper[i], b.lower[i] = math.Inf(1), 0
			}
			if a != best {
				changed = true
				assign[i] = best
			}
		}
		return changed
	}

	var changed bool
	if n*k*d >= parallelThreshold && n > 2*parallelChunk {
		results := make([]bool, (n+parallelChunk-1)/parallelChunk)
		pool.Each(len(results), func(ci int) {
			lo := ci * parallelChunk
			results[ci] = assignRange(lo, min(lo+parallelChunk, n))
		})
		for _, r := range results {
			changed = changed || r
		}
	} else {
		changed = assignRange(0, n)
	}

	for i := range sizes {
		sizes[i] = 0
	}
	for _, a := range assign {
		sizes[a]++
	}
	return changed || force
}

// sumByCluster accumulates per-cluster coordinate sums. Partial sums are
// computed per fixed-size chunk and merged in chunk order, so the
// floating-point result is identical for any worker count.
func sumByCluster(data [][]float64, assign []int, k, d int) [][]float64 {
	n := len(data)
	out := make([][]float64, k)
	backing := make([]float64, k*d)
	for c := range out {
		out[c], backing = backing[:d], backing[d:]
	}
	sumRange := func(dst []float64, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := dst[assign[i]*d : (assign[i]+1)*d]
			for j, v := range data[i] {
				row[j] += v
			}
		}
	}
	if n*d >= parallelThreshold/8 && n > 2*parallelChunk {
		partials := make([][]float64, (n+parallelChunk-1)/parallelChunk)
		pool.Each(len(partials), func(ci int) {
			part := make([]float64, k*d)
			lo := ci * parallelChunk
			sumRange(part, lo, min(lo+parallelChunk, n))
			partials[ci] = part
		})
		// Merge in chunk order for bit-stable floating point.
		flat := make([]float64, k*d)
		for _, part := range partials {
			for j, v := range part {
				flat[j] += v
			}
		}
		for c := range out {
			copy(out[c], flat[c*d:(c+1)*d])
		}
		return out
	}
	flat := make([]float64, k*d)
	sumRange(flat, 0, n)
	for c := range out {
		copy(out[c], flat[c*d:(c+1)*d])
	}
	return out
}

// plusPlus grows centroids to k members with k-means++ draws: each next
// centroid is a point drawn with probability proportional to its
// squared distance from the nearest chosen one. On the way it computes
// what the first Lloyd assignment step would, so that step starts from
// bounds instead of rescanning: for every point, its nearest centroid
// (first index on ties, as the scan picks) and Hamerly bounds at the
// finished set, upper on the distance to it and lower on the distance
// to any other. A point that met a non-finite distance gets lower 0,
// which never proves anything, so the first step rescans it.
//
// from, when non-nil, is the finished run the first len(centroids)
// centroids came from. Its Assign names each point's nearest of them,
// so the point's distance to that one alone is its draw weight and its
// carried lower bound covers the rest: n distances instead of
// n*len(centroids). A point whose carried distance is not finite is
// scanned against every centroid instead. The draw weights are the
// very values a full scan computes, so the draws are too.
func plusPlus(data, centroids [][]float64, k int, rng *stats.RNG, from *carry) ([][]float64, []int, []float64, []float64) {
	n := len(data)
	tol := tolerance(len(data[0]))
	assign := make([]int, n)
	d2 := make([]float64, n)     // squared distance to the nearest centroid: the draw weights
	second := make([]float64, n) // squared distance to the second nearest of those scanned here
	lower := make([]float64, n)  // carried bound on the distance to those not scanned here
	inf := math.Inf(1)
	// observe applies the scan's first-index rule for centroid c.
	observe := func(i, c int, dist float64) {
		if dist < d2[i] {
			d2[i], second[i], assign[i] = dist, d2[i], c
		} else if dist < second[i] {
			second[i] = dist
		}
		if !finite(dist) {
			lower[i] = 0
		}
	}
	for i, x := range data {
		d2[i], second[i], lower[i] = inf, inf, inf
		if from != nil {
			a := from.res.Assign[i]
			if v := linalg.SquaredDistance(x, centroids[a]); finite(v) {
				d2[i], assign[i], lower[i] = v, a, from.lower[i]
				continue
			}
		}
		for c, cen := range centroids {
			observe(i, c, linalg.SquaredDistance(x, cen))
		}
	}
	for len(centroids) < k {
		total := 0.0
		for _, v := range d2 {
			total += v
		}
		var idx int
		if total <= 0 {
			// All remaining points coincide with a centroid; pick
			// uniformly.
			idx = rng.Intn(n)
		} else {
			r := rng.Float64() * total
			acc := 0.0
			idx = n - 1
			for i, v := range d2 {
				acc += v
				if acc >= r {
					idx = i
					break
				}
			}
		}
		c := clone(data[idx])
		centroids = append(centroids, c)
		for i, x := range data {
			observe(i, len(centroids)-1, linalg.SquaredDistance(x, c))
		}
	}
	upper := d2 // the draw weights are spent: reuse them
	for i, v := range d2 {
		lower[i] = min(lower[i], tol.down(math.Sqrt(second[i])))
		upper[i] = tol.up(math.Sqrt(v))
	}
	return centroids, assign, upper, lower
}

// equalVec reports exact element-wise equality; used by the
// empty-cluster repair to detect a reseed that made no progress.
func equalVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func clone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// Representatives returns, for each cluster, the index of the point
// closest to its centroid — the frame MEGsim actually simulates for the
// cluster (Section III-E).
func Representatives(data [][]float64, res Result) []int {
	reps := make([]int, res.K)
	best := make([]float64, res.K)
	for c := range best {
		best[c] = math.Inf(1)
		reps[c] = -1
	}
	for i, x := range data {
		c := res.Assign[i]
		if dist := linalg.SquaredDistance(x, res.Centroids[c]); dist < best[c] {
			best[c] = dist
			reps[c] = i
		}
	}
	return reps
}
