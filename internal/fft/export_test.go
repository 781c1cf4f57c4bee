package fft

// InverseToPerm is Inverse in place on natural-order input, leaving the
// result in Perm order: element j of Inverse's output is x[Perm()[j]]. It
// is the per-line reference the tile tests hold TileInverse to.
func (p *Plan) InverseToPerm(x []complex128) error { return p.inPerm(x, true) }

// Dispatch is one way this CPU can run a tile (tileDispatches), for the
// tests of the external test package: its name and a runner that runs f
// under it.
type Dispatch struct {
	Name string
	Run  func(f func())
}

// Dispatches lists every dispatch this CPU has: the AVX-512 tile twin, the
// AVX one, the line path on the AVX line kernels, and the Go loops.
func Dispatches() []Dispatch {
	var ds []Dispatch
	for _, d := range tileDispatches() {
		ds = append(ds, Dispatch{d.name, d.run})
	}
	return ds
}
