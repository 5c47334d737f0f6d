package stat

import "math/rand"

// NormalSampler draws Gaussian variates from a seeded source so experiments
// are reproducible.
type NormalSampler struct {
	rng *rand.Rand
}

// NewNormalSampler creates a sampler with a deterministic seed.
func NewNormalSampler(seed int64) *NormalSampler {
	return &NormalSampler{rng: rand.New(rand.NewSource(seed))}
}

// Sample returns one N(mean, stddev²) variate.
func (s *NormalSampler) Sample(mean, stddev float64) float64 {
	return mean + stddev*s.rng.NormFloat64()
}
