package cluster

import (
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/xmath/stats"
)

// BIC computes the Bayesian Information Criterion score of a clustering
// using the x-means formulation the paper cites ([28], [29]), Eq. (5)-(6):
//
//	BIC(φ) = l̂(D) − (p/2)·log R
//	l̂(D)  = Σ_n R_n·log R_n − R·log R − (R·M/2)·log(2πσ²) − (M/2)(R−K)
//
// with R points of dimension M in K clusters, p = K(M+1) free parameters,
// and σ² the average variance of the Euclidean distance from each point
// to its centroid, estimated as WCSS/(R−K).
//
// Higher is better. Clusterings where every point sits in its own
// cluster or with an undefined variance are degenerate; they get -Inf
// so the search never selects them over meaningful fits. K counts only
// non-empty clusters: an empty cluster (possible on duplicate-heavy
// data even after the Lloyd reseed repair) carries no fitted
// parameters, so it must neither inflate the penalty term nor push the
// variance denominator R-K to zero. That keeps the score defined for
// singleton-cluster results such as K = R with one empty cluster.
func BIC(data [][]float64, res Result) float64 {
	r := float64(len(data))
	if len(data) == 0 || res.K <= 0 {
		return math.Inf(-1)
	}
	// Effective cluster count: only clusters that captured points.
	kEff := 0
	for _, rn := range res.Sizes {
		if rn > 0 {
			kEff++
		}
	}
	if kEff == 0 {
		// No Sizes recorded (hand-built Result): fall back to the
		// declared K so a well-formed clustering still scores.
		kEff = res.K
	}
	m := float64(len(data[0]))
	k := float64(kEff)
	if len(data) <= kEff || math.IsNaN(res.WCSS) {
		return math.Inf(-1)
	}
	sigma2 := res.WCSS / (r - k)
	if sigma2 <= 0 {
		// A perfect fit: the likelihood is unbounded. Treat as the
		// best possible score so exact clusterings win.
		return math.Inf(1)
	}

	logLikelihood := 0.0
	for _, rn := range res.Sizes {
		if rn > 0 {
			logLikelihood += float64(rn) * math.Log(float64(rn))
		}
	}
	logLikelihood -= r * math.Log(r)
	logLikelihood -= (r * m / 2) * math.Log(2*math.Pi*sigma2)
	logLikelihood -= (m / 2) * (r - k)

	p := k * (m + 1)
	return logLikelihood - (p/2)*math.Log(r)
}

// SearchConfig controls the iterative cluster-count search of
// Section III-F.
type SearchConfig struct {
	// Threshold is T: the chosen clustering must score at least
	// min + T*(max-min) over the explored BIC scores. The paper uses
	// 0.85.
	Threshold float64
	// MaxK caps the search (0 = min(n/2, 56)).
	MaxK int
	// MaxIterations bounds each k-means run (0 = default).
	MaxIterations int
	// Restarts runs each small k this many times with different seeds
	// and keeps the lowest-WCSS result (0 = 1). Beyond k = 10 the
	// search relies on x-means-style warm starts (refining the previous
	// clustering with one more centroid), which keeps WCSS monotone in
	// k at a fraction of the cost.
	Restarts int
	// Patience is how many consecutive non-improving k values end the
	// search. The paper stops at the first BIC drop (Patience = 1);
	// the default 3 tolerates k-means seed noise.
	Patience int
	// Obs, when non-nil and enabled, receives k-means run/iteration
	// counters and a per-run iteration histogram from the search.
	Obs *obs.Registry
}

// DefaultSearchConfig returns the paper's settings (T = 0.85) with
// restart/patience smoothing of k-means initialization noise.
func DefaultSearchConfig() SearchConfig {
	return SearchConfig{Threshold: 0.85, Restarts: 3, Patience: 3}
}

// SearchResult is the outcome of the cluster-count search.
type SearchResult struct {
	// Best is the selected clustering.
	Best Result
	// Scores[i] is the BIC score of k = i+1, for every k explored.
	Scores []float64
	// StoppedAt is the largest k explored (where BIC first dropped or
	// the cap was hit).
	StoppedAt int
}

// Search explores k = 1, 2, ... computing the BIC score for each
// clustering, stops when the score drops below the previous one (or at
// MaxK), and selects the smallest k whose score reaches
// min + Threshold*(max-min) — exactly the procedure of Section III-F.
func Search(data [][]float64, cfg SearchConfig, rng *stats.RNG) (SearchResult, error) {
	n := len(data)
	if n == 0 {
		return SearchResult{}, fmt.Errorf("cluster: search on empty dataset")
	}
	if cfg.Threshold < 0 || cfg.Threshold > 1 {
		return SearchResult{}, fmt.Errorf("cluster: threshold %v out of [0,1]", cfg.Threshold)
	}
	maxK := cfg.MaxK
	if maxK <= 0 {
		maxK = n / 2
		if maxK > 56 {
			maxK = 56
		}
	}
	if maxK > n {
		maxK = n
	}
	if maxK < 1 {
		maxK = 1
	}
	restarts := cfg.Restarts
	if restarts < 1 {
		restarts = 1
	}
	patience := cfg.Patience
	if patience < 1 {
		patience = 1
	}

	// Fresh k-means++ restarts are worthwhile at small k where the
	// solution landscape is rough; at larger k the warm start dominates
	// and fresh restarts only burn time, so they thin out.
	const freshRestartMaxK = 10
	const freshRestartEvery = 5

	var (
		cRuns  = cfg.Obs.Counter("cluster.kmeans.runs")
		cIters = cfg.Obs.Counter("cluster.kmeans.iterations")
		hIters = cfg.Obs.Histogram("cluster.kmeans.iterations_per_run")
	)

	var (
		results  []Result
		scores   []float64
		bestSeen = math.Inf(-1)
		dry      = 0
		prev     carry
	)
	for k := 1; k <= maxK; k++ {
		fresh := 1
		if k <= freshRestartMaxK {
			fresh = restarts
		} else if k%freshRestartEvery != 0 {
			fresh = 0
		}
		// The fresh k-means++ restarts, then (for k > 1) an x-means-style
		// warm start that refines the previous best clustering with one
		// extra centroid. The warm start keeps WCSS (near-)monotone in k
		// so the BIC stop rule fires on the real optimum, not on a
		// k-means local-minimum artifact. The runs are independent, so
		// they run concurrently; their RNG streams are split, and their
		// results recorded and compared, in this fixed order.
		runs := make([]carry, fresh)
		if k > 1 {
			runs = append(runs, carry{})
		}
		rngs := make([]*stats.RNG, len(runs))
		for r := range rngs {
			rngs[r] = rng.Split()
		}
		pool.Each(len(runs), func(r int) {
			if r < fresh {
				runs[r] = kmeans(data, k, rngs[r], cfg.MaxIterations, nil, nil)
			} else {
				runs[r] = kmeans(data, k, rngs[r], cfg.MaxIterations, nil, &prev)
			}
		})
		best := carry{}
		bestWCSS := math.Inf(1)
		for _, run := range runs {
			cRuns.Inc()
			cIters.Add(uint64(run.res.Iterations))
			hIters.Observe(uint64(run.res.Iterations))
			if run.res.WCSS < bestWCSS {
				best, bestWCSS = run, run.res.WCSS
			}
		}
		prev = best
		score := BIC(data, best.res)
		results = append(results, best.res)
		scores = append(scores, score)
		if math.IsInf(score, 1) {
			// Perfect fit: no larger k can do better.
			break
		}
		if score > bestSeen {
			bestSeen = score
			dry = 0
		} else if k > 1 {
			dry++
			if dry >= patience {
				break
			}
		}
	}

	// Selection: smallest k reaching Threshold of the score spread.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range scores {
		if math.IsInf(s, 0) {
			continue
		}
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	chosen := len(scores) - 1
	if !math.IsInf(lo, 0) && !math.IsInf(hi, 0) && hi > lo {
		cut := lo + cfg.Threshold*(hi-lo)
		for i, s := range scores {
			if s >= cut {
				chosen = i
				break
			}
		}
	} else {
		// All scores equal (or a perfect fit ended the search): pick
		// the last explored, which is the best known.
		for i, s := range scores {
			if math.IsInf(s, 1) {
				chosen = i
				break
			}
		}
	}
	return SearchResult{Best: results[chosen], Scores: scores, StoppedAt: len(scores)}, nil
}
