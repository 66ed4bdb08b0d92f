package cluster

import (
	"testing"

	"repro/internal/xmath/stats"
)

func benchData(n, d int) [][]float64 {
	rng := stats.NewRNG(42)
	data := make([][]float64, n)
	for i := range data {
		data[i] = make([]float64, d)
		center := float64(i % 5 * 20)
		for j := range data[i] {
			data[i][j] = center + rng.Norm(0, 1)
		}
	}
	return data
}

// phaseData mimics frame feature vectors: n frames in contiguous phases
// that recur, each phase a sparse non-negative profile over d
// dimensions that its frames perturb by a few percent.
func phaseData(n, d int) [][]float64 {
	rng := stats.NewRNG(136)
	const phases, run = 16, 20
	profiles := make([][]float64, phases)
	for p := range profiles {
		profiles[p] = make([]float64, d)
		for j := range profiles[p] {
			if rng.Float64() < 0.3 {
				profiles[p][j] = rng.Float64()
			}
		}
	}
	data := make([][]float64, n)
	for i := range data {
		profile := profiles[(i/run*7)%phases]
		data[i] = make([]float64, d)
		for j, v := range profile {
			data[i][j] = v * (1 + rng.Norm(0, 0.05))
		}
	}
	return data
}

func BenchmarkKMeans(b *testing.B) {
	data := benchData(1000, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KMeans(data, 8, stats.NewRNG(uint64(i)+1), 0)
	}
}

func BenchmarkKMeansSeededWarmStart(b *testing.B) {
	data := benchData(1000, 32)
	base := KMeans(data, 7, stats.NewRNG(1), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KMeansSeeded(data, 8, stats.NewRNG(uint64(i)+1), 0, base.Centroids)
	}
}

func BenchmarkBIC(b *testing.B) {
	data := benchData(1000, 32)
	res := KMeans(data, 8, stats.NewRNG(1), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BIC(data, res)
	}
}

func BenchmarkSearch(b *testing.B) {
	benchSearch(b, benchData(500, 16))
}

// BenchmarkSearchD136 is the BIC search at the size of a 500-frame
// selection over D=136 feature vectors, as bbr1's are.
func BenchmarkSearchD136(b *testing.B) {
	benchSearch(b, phaseData(500, 136))
}

func benchSearch(b *testing.B, data [][]float64) {
	cfg := DefaultSearchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Search(data, cfg, stats.NewRNG(uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}
