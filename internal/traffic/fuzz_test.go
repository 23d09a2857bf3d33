package traffic

import (
	"math"
	"testing"
)

// FuzzGen hammers the rate-curve, flash-crowd and Zipf samplers with
// arbitrary (often hostile) parameters: any pattern that passes Validate must
// produce finite, strictly increasing arrivals with in-range tenants and
// classes — no NaN or negative inter-arrival may survive validation, flash
// windows included.
func FuzzGen(f *testing.F) {
	f.Add(int64(1), 100.0, 1.1, 0.0, 1.0, 2.0, uint16(1000), 0.0, 0.0, 0.0)
	f.Add(int64(7), 0.5, 0.0, 4.0, 2.0, 0.5, uint16(0), 20.0, 1e5, 0.01)
	f.Add(int64(-3), 1e6, 2.5, 1e3, 0.0, 0.0, uint16(65535), 3.0, 1e6, 1.0)
	f.Add(int64(0), math.Inf(1), math.NaN(), -1.0, math.NaN(), -5.0, uint16(3), math.NaN(), -2.0, 7.0)
	f.Add(int64(11), 50.0, 1.0, 0.0, 0.0, 0.0, uint16(100), 0.5, 0.0, 0.5)
	f.Fuzz(func(t *testing.T, seed int64, rate, zipfS, burst, d0, d1 float64, n uint16, flashF, flashOn, flashFrac float64) {
		pat := Pattern{
			CallsPerMcycle: rate,
			BurstFactor:    burst,
			FlashFactor:    flashF,
			FlashOnCycles:  flashOn,
			FlashRankFrac:  flashFrac,
		}
		if d0 != 0 || d1 != 0 {
			pat.Diurnal = []float64{d0, d1}
		}
		ten := Tenants{N: int(n), ZipfS: zipfS}
		if pat.Validate() != nil || ten.Validate() != nil {
			return // rejected inputs must never reach the sampler
		}
		if !pat.Enabled() {
			return
		}
		g := NewGen(pat, ten, SLO{}, seed)
		prev := 0.0
		for i := 0; i < 200; i++ {
			a := g.Next()
			if math.IsNaN(a.At) || math.IsInf(a.At, 0) || a.At <= prev {
				t.Fatalf("arrival %d: At %v after %v (pattern %+v)", i, a.At, prev, pat)
			}
			if a.Tenant < 1 || a.Tenant > ten.n() {
				t.Fatalf("arrival %d: tenant %d out of [1, %d]", i, a.Tenant, ten.n())
			}
			if a.Class < 0 || a.Class >= NumClasses {
				t.Fatalf("arrival %d: class %d", i, a.Class)
			}
			prev = a.At
		}
	})
}
