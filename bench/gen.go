package main

import (
	"math"
	"math/rand"
	"sort"

	"lowcomm3d/internal/grid"
)

// The program under test receives only inputs generated here from the
// seed. Fields are a mean plus cosModes random cosine modes of amplitude
// 0.5–1: the paper claims its ≤3 % error (§5.3) for smooth MASSIF fields
// (stresses under a load: a mean with fluctuations around it), and white
// noise measures 4–9 % on the same pipeline, so noise would test a claim
// nobody makes. The mean also makes rel_l2_err nearly the same for every
// seed (spread 2–3 %; 9–23 % for zero-mean fields of the same modes), so
// that a change of a few percent in it can be told from the draw of a seed.
const (
	cosModes  = 8
	fieldMean = 8.0
)

// boxField is the input of one k³ sub-domain: modes of at most one
// period per sub-domain edge.
func boxField(rng *rand.Rand, k int) *grid.Field {
	return cosField(rng, k, func() float64 { return 2*rng.Float64() - 1 })
}

// fullField is a whole-grid input: integer wavenumbers of magnitude ≤ 3
// per axis, so the field is periodic over the grid and no box is all zero.
func fullField(rng *rand.Rand, n int) *grid.Field {
	return cosField(rng, n, func() float64 { return float64(rng.Intn(7) - 3) })
}

func cosField(rng *rand.Rand, n int, wavenumber func() float64) *grid.Field {
	type mode struct{ amp, kx, ky, kz, phase float64 }
	modes := make([]mode, cosModes)
	for i := range modes {
		modes[i] = mode{
			amp:   0.5 + 0.5*rng.Float64(),
			kx:    wavenumber(),
			ky:    wavenumber(),
			kz:    wavenumber(),
			phase: 2 * math.Pi * rng.Float64(),
		}
	}
	f := grid.NewField(grid.Cube(n))
	w := 2 * math.Pi / float64(n)
	i := 0
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				v := fieldMean
				for _, m := range modes {
					v += m.amp * math.Cos(w*(m.kx*float64(x)+m.ky*float64(y)+m.kz*float64(z))+m.phase)
				}
				f.Data[i] = v
				i++
			}
		}
	}
	return f
}

// arrival is one open-loop request: when it is due, relative to the start
// of its window on the nominal machine, and what it asks for.
type arrival struct {
	dueNs  int64
	tenant int
	box    int
}

// arrivalWindow draws one window of the open-loop schedule: exactly
// perWindow arrivals, uniformly placed in the window (a Poisson process
// conditioned on its count, so the offered load is the same for every
// seed), each with a seeded tenant and box.
func arrivalWindow(rng *rand.Rand, perWindow int, windowNs int64, tenants, boxes int) []arrival {
	a := make([]arrival, perWindow)
	for i := range a {
		a[i] = arrival{
			dueNs:  rng.Int63n(windowNs),
			tenant: rng.Intn(tenants),
			box:    rng.Intn(boxes),
		}
	}
	sort.SliceStable(a, func(i, j int) bool { return a[i].dueNs < a[j].dueNs })
	return a
}
