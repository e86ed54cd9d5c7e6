package shelves

import (
	"fmt"
	"testing"

	"repro/internal/lt"
	"repro/internal/moldable"
)

// Build is the constructive core shared by all (3/2+ε) algorithms;
// its cost must not depend on m (free windows are grouped, Lemma 9).
func BenchmarkBuild(b *testing.B) {
	for _, m := range []int{1 << 8, 1 << 16, 1 << 24} {
		b.Run(fmt.Sprintf("heap/m=%d", m), func(b *testing.B) {
			in := moldable.Random(moldable.GenConfig{N: 512, M: m, Seed: 4})
			d := 2 * lt.Estimate(in).Omega
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := build(in, d, nil, Options{}); !ok {
					b.Fatal("rejected")
				}
			}
		})
	}
	b.Run("buckets/m=65536", func(b *testing.B) {
		in := moldable.Random(moldable.GenConfig{N: 512, M: 1 << 16, Seed: 4})
		d := 2 * lt.Estimate(in).Omega
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := build(in, d, nil, Options{Buckets: true, BucketRatio: 1.05}); !ok {
				b.Fatal("rejected")
			}
		}
	})
}

func BenchmarkPartition(b *testing.B) {
	in := moldable.Random(moldable.GenConfig{N: 4096, M: 1 << 16, Seed: 5})
	d := 2 * lt.Estimate(in).Omega
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Compute(&Partition{}, in, d) {
			b.Fatal("rejected")
		}
	}
}
