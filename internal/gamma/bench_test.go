package gamma

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/moldable"
)

// BenchmarkGamma times one γ per family and machine size, at breakpoint
// thresholds t(p) with p log-uniform in [1, m]. The closed forms take
// the seeded search; table has no seed and pays the bisection.
func BenchmarkGamma(b *testing.B) {
	rng := rand.New(rand.NewPCG(15, 3))
	families := []struct {
		name string
		job  moldable.Job
	}{
		{"amdahl", moldable.Amdahl{Seq: 3, Par: 900}},
		{"power", moldable.Power{W: 1000, Alpha: 0.8}},
		{"comm", moldable.Comm{W: 1000, C: 0.05}},
		{"perfect", moldable.PerfectSpeedup{W: 1000}},
		{"table", moldable.SmallTable(rng, 4096, 1000)},
	}
	for _, fam := range families {
		for _, m := range []int{1 << 10, 1 << 20, 1 << 30} {
			ths := make([]moldable.Time, 64)
			for k := range ths {
				ths[k] = fam.job.Time(int(math.Pow(float64(m), rng.Float64())))
			}
			b.Run(fmt.Sprintf("%s/m=2^%d", fam.name, int(math.Log2(float64(m)))), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					Gamma(fam.job, m, ths[i%len(ths)])
				}
			})
		}
	}
}
