package fft

import (
	"fmt"
	"sync"

	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs"
)

// Plan3D performs in-place 3D transforms on a grid.ComplexField by
// sweeping 1D transforms along each axis (the classical pencil
// decomposition: an N×N×N transform is N² 1D transforms per axis).
// Lines are processed in parallel across Workers goroutines.
type Plan3D struct {
	dim        grid.Dim3
	px, py, pz *Plan
	workers    int
	trace      *obs.Trace
	hx, hy, hz *obs.Histogram // per-axis sweep latency, cached by SetTrace
}

// NewPlan3D creates a 3D plan for fields of dimensions d. workers ≤ 0
// selects GOMAXPROCS.
func NewPlan3D(d grid.Dim3, workers int) (*Plan3D, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("fft: empty dimensions %v", d)
	}
	px, err := NewPlan(d.Nx)
	if err != nil {
		return nil, err
	}
	py := px
	if d.Ny != d.Nx {
		if py, err = NewPlan(d.Ny); err != nil {
			return nil, err
		}
	}
	pz := px
	switch {
	case d.Nz == d.Nx:
		pz = px
	case d.Nz == d.Ny:
		pz = py
	default:
		if pz, err = NewPlan(d.Nz); err != nil {
			return nil, err
		}
	}
	return &Plan3D{dim: d, px: px, py: py, pz: pz, workers: Workers(workers)}, nil
}

// Dim returns the plan's field dimensions.
func (p *Plan3D) Dim() grid.Dim3 { return p.dim }

// SetTrace attaches an observability trace: each Forward/Inverse records
// one span per axis sweep plus per-worker line spans, accumulates the
// 5·N·log₂N FLOP model in "fft.flops_model", and feeds per-axis sweep
// latency histograms ("fft.sweep_x/y/z_seconds"). A nil trace disables
// recording (the default).
func (p *Plan3D) SetTrace(t *obs.Trace) {
	p.trace = t
	p.hx = t.Histogram("fft.sweep_x_seconds")
	p.hy = t.Histogram("fft.sweep_y_seconds")
	p.hz = t.Histogram("fft.sweep_z_seconds")
}

// Forward transforms f in place (unnormalized).
func (p *Plan3D) Forward(f *grid.ComplexField) error { return p.run(f, false) }

// Inverse transforms f in place, applying 1/N per axis.
func (p *Plan3D) Inverse(f *grid.ComplexField) error { return p.run(f, true) }

func (p *Plan3D) run(f *grid.ComplexField, inverse bool) error {
	if f.Dim != p.dim {
		return fmt.Errorf("fft: field dims %v != plan dims %v", f.Dim, p.dim)
	}
	d := p.dim
	data := f.Data
	maxN := d.Nx
	if d.Ny > maxN {
		maxN = d.Ny
	}
	if d.Nz > maxN {
		maxN = d.Nz
	}
	scratch := make([][]complex128, p.workers)
	for w := range scratch {
		scratch[w] = make([]complex128, maxN)
	}
	var ec FirstError
	dir := "fft3d.forward"
	if inverse {
		dir = "fft3d.inverse"
	}
	root := p.trace.Start(dir)
	defer root.End()
	p.trace.Counter("fft.flops_model").Add(
		int64(d.Ny*d.Nz)*obs.FFTFlops(d.Nx) +
			int64(d.Nx*d.Nz)*obs.FFTFlops(d.Ny) +
			int64(d.Nx*d.Ny)*obs.FFTFlops(d.Nz))

	// X axis: contiguous lines, one per (y, z).
	ax := root.Start(dir + ".x")
	ParallelForSpanned(ax, dir+".x.worker", d.Ny*d.Nz, p.workers, func(w, i int) {
		base := i * d.Nx
		line := data[base : base+d.Nx]
		if inverse {
			ec.Record(p.px.Inverse(line, line))
		} else {
			ec.Record(p.px.Forward(line, line))
		}
	})
	p.hx.Observe(ax.End())
	if err := ec.Err(); err != nil {
		return err
	}
	// Y axis: stride Nx, one line per (x, z).
	ay := root.Start(dir + ".y")
	ParallelForSpanned(ay, dir+".y.worker", d.Nx*d.Nz, p.workers, func(w, i int) {
		x := i % d.Nx
		z := i / d.Nx
		off := x + d.Nx*d.Ny*z
		if inverse {
			ec.Record(p.py.InverseStrided(data, off, d.Nx, scratch[w]))
		} else {
			ec.Record(p.py.ForwardStrided(data, off, d.Nx, scratch[w]))
		}
	})
	p.hy.Observe(ay.End())
	if err := ec.Err(); err != nil {
		return err
	}
	// Z axis: stride Nx·Ny, one line per (x, y).
	az := root.Start(dir + ".z")
	ParallelForSpanned(az, dir+".z.worker", d.Nx*d.Ny, p.workers, func(w, i int) {
		if inverse {
			ec.Record(p.pz.InverseStrided(data, i, d.Nx*d.Ny, scratch[w]))
		} else {
			ec.Record(p.pz.ForwardStrided(data, i, d.Nx*d.Ny, scratch[w]))
		}
	})
	p.hz.Observe(az.End())
	return ec.Err()
}

// Plan2D performs in-place forward 2D (x, y) transforms of plane slices —
// "the small domain undergoes a 2D transform to a slab". The benchmark's
// plan probes time it; conv.Local does the same stage on the half spectrum
// with 1D plans, and cluster's dense pipeline with 1D plans on the lines
// a rank holds.
type Plan2D struct {
	nx, ny  int
	px, py  *Plan
	workers int

	// scratch pools the single column-pass line buffer of the serial path,
	// so repeated plane transforms (a serving engine's steady state) do no
	// per-call heap allocation. The parallel path still allocates its
	// per-worker scratch per call — goroutine spawns dominate there anyway.
	scratch sync.Pool
}

// NewPlan2D creates a 2D plan for nx×ny planes.
func NewPlan2D(nx, ny, workers int) (*Plan2D, error) {
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("fft: invalid plane dims %dx%d", nx, ny)
	}
	px, err := NewPlan(nx)
	if err != nil {
		return nil, err
	}
	py := px
	if ny != nx {
		if py, err = NewPlan(ny); err != nil {
			return nil, err
		}
	}
	p := &Plan2D{nx: nx, ny: ny, px: px, py: py, workers: Workers(workers)}
	p.scratch.New = func() any {
		s := make([]complex128, ny)
		return &s
	}
	return p, nil
}

// ForwardPlane transforms one nx×ny plane (row-major, x fastest) in place:
// the x lines, then the y lines.
func (p *Plan2D) ForwardPlane(plane []complex128) error {
	if len(plane) != p.nx*p.ny {
		return fmt.Errorf("fft: plane length %d != %d", len(plane), p.nx*p.ny)
	}
	if p.workers <= 1 {
		return p.planeSerial(plane)
	}
	var ec FirstError
	scratch := make([][]complex128, p.workers)
	for w := range scratch {
		scratch[w] = make([]complex128, p.ny)
	}
	ParallelFor(p.ny, p.workers, func(w, y int) {
		row := plane[y*p.nx : (y+1)*p.nx]
		ec.Record(p.px.Forward(row, row))
	})
	if err := ec.Err(); err != nil {
		return err
	}
	ParallelFor(p.nx, p.workers, func(w, x int) {
		ec.Record(p.py.ForwardStrided(plane, x, p.nx, scratch[w]))
	})
	return ec.Err()
}

// planeSerial is the single-worker plane transform: one pooled scratch
// line, no goroutines, no per-call allocation.
func (p *Plan2D) planeSerial(plane []complex128) error {
	sp := p.scratch.Get().(*[]complex128)
	defer p.scratch.Put(sp)
	for y := 0; y < p.ny; y++ {
		row := plane[y*p.nx : (y+1)*p.nx]
		if err := p.px.Forward(row, row); err != nil {
			return err
		}
	}
	for x := 0; x < p.nx; x++ {
		if err := p.py.ForwardStrided(plane, x, p.nx, *sp); err != nil {
			return err
		}
	}
	return nil
}
