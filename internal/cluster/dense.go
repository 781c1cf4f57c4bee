package cluster

import (
	"fmt"
	"math"

	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
)

// DistFFTConvolve runs the traditional distributed FFT convolution of
// Fig. 1a on P simulated workers with slab decomposition: each worker owns
// N/P z-planes and transforms their x and y lines, one all-to-all
// transposes to y-slabs for the z transforms and the kernel multiply, and
// one transposes back for the inverse x and y lines. Two all-to-all rounds
// of the full (complex) grid cross the fabric — the communication the
// paper eliminates, and a lower bound for the traditional method: Eq. 1's
// pencils need four (PencilFFTConvolve).
func DistFFTConvolve(c *Cluster, f *grid.Field, kernel green.Kernel) (*grid.Field, error) {
	n := f.Dim.Nx
	if f.Dim != grid.Cube(n) {
		return nil, fmt.Errorf("cluster: grid %v must be cubic", f.Dim)
	}
	if n%c.P != 0 {
		return nil, fmt.Errorf("cluster: grid size %d not divisible by %d workers", n, c.P)
	}
	return convolve(c, f, kernel, []int{c.P})
}

// PencilFFTConvolve runs the traditional convolution with a
// pencil-decomposed 3D FFT on a √P×√P process grid — the decomposition the
// paper's Eq. 1 models: "the N×N×N point 3D FFT is decomposed into N² 1D
// FFTs... two all-to-all communication stages during 3D FFT computation".
// A convolution therefore crosses the fabric four times (two transposes
// per transform, forward and inverse). Workers hold only N³/P points at
// any moment. It returns DistFFTConvolve's field bit for bit.
//
// The worker count must be a perfect square whose root divides N.
func PencilFFTConvolve(c *Cluster, f *grid.Field, kernel green.Kernel) (*grid.Field, error) {
	n := f.Dim.Nx
	if f.Dim != grid.Cube(n) {
		return nil, fmt.Errorf("cluster: grid %v must be cubic", f.Dim)
	}
	p1 := int(math.Round(math.Sqrt(float64(c.P))))
	if p1*p1 != c.P {
		return nil, fmt.Errorf("cluster: pencil decomposition needs a square worker count, got %d", c.P)
	}
	if n%p1 != 0 {
		return nil, fmt.Errorf("cluster: grid size %d not divisible by process grid %dx%d", n, p1, p1)
	}
	return convolve(c, f, kernel, []int{p1, p1})
}

// SlabConvolver returns the slab-decomposed convolution of real components
// on an n³ grid over p ranks (p divides n), op applied at every frequency
// (kx over all of [0, n)), each component one all-to-all per transform
// direction. The returned function runs on worker w: planes[c] holds
// component c on the rank's z planes [w.ID·n/p, (w.ID+1)·n/p), x fastest,
// and on return the result there (the slices may be replaced).
func SlabConvolver(n, p int, op conv.Pointwise) (func(w *Worker, planes [][]complex128) error, error) {
	d, err := newDense(n, []int{p}, op)
	if err != nil {
		return nil, err
	}
	return func(w *Worker, planes [][]complex128) error {
		_, err := d.run(w, planes)
		return err
	}, nil
}

// convolve returns kernel ∗ f, run by dense on c over the process grid dims.
func convolve(c *Cluster, f *grid.Field, kernel green.Kernel, dims []int) (*grid.Field, error) {
	d, err := newDense(f.Dim.Nx, dims, conv.KernelPointwise(f.Dim, kernel))
	if err != nil {
		return nil, err
	}
	out := grid.NewField(f.Dim)
	err = c.Run(func(w *Worker) error {
		b := d.start(w.ID)
		data := [][]complex128{make([]complex128, 0, b.Volume())}
		b.ForEach(func(x, y, z int) { data[0] = append(data[0], complex(f.At(x, y, z), 0)) })
		b, err := d.run(w, data)
		if err != nil {
			return err
		}
		i := 0
		b.ForEach(func(x, y, z int) {
			out.Set(x, y, z, real(data[0][i]))
			i++
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// dense is the one transpose-based distributed convolution. Every rank
// transforms the x and y lines it holds whole, the z lines (op between the
// two directions) once transposes make them whole, then x and y lines
// again for the inverse. The process grid has one dimension (slab) or two
// (pencil), dimension 0 fastest in the rank; dimension g splits axis
// 3−len(dims)+g at the start, so a slab rank holds z planes and a pencil
// rank x lines. A transpose swaps a split axis, within its grid
// dimension's group, with the highest axis the rank holds whole, so each
// grid dimension costs one all-to-all per transform direction and
// component. Every line sees the same transforms in the same order
// (forward x, y, z; inverse z, x, y), so every grid returns the same bits.
type dense struct {
	n     int
	dims  []int
	op    conv.Pointwise
	plan  *fft.Plan
	zRows fft.Rows // a z tile's rows in the staging tile: Perm position i is z = Perm()[i]
}

func newDense(n int, dims []int, op conv.Pointwise) (*dense, error) {
	plan, err := fft.NewPlan(n)
	if err != nil {
		return nil, err
	}
	at := make([]int32, n)
	for i, z := range plan.Perm() {
		at[i] = fft.Tile * z
	}
	zRows, err := plan.Rows(at)
	if err != nil {
		return nil, err
	}
	return &dense{n: n, dims: dims, op: op, plan: plan, zRows: zRows}, nil
}

// block is the box of the grid a rank holds at one step, a component's
// values one slice in the box's x-fastest order, and per axis the grid
// dimension that splits it (−1 where the rank holds the axis whole).
type block struct {
	grid.Box
	by [3]int
}

// start is rank id's block before the forward transforms.
func (d *dense) start(id int) block {
	b := block{Box: grid.Cube(d.n).Bounds(), by: [3]int{-1, -1, -1}}
	for g, p := range d.dims {
		a, e := 3-len(d.dims)+g, d.n/p
		b.Lo[a], b.Hi[a], b.by[a] = id%p*e, id%p*e+e, g
		id /= p
	}
	return b
}

// run convolves rank w's share: data[c] holds component c on d.start(w.ID)
// and on return holds the result on the returned block.
func (d *dense) run(w *Worker, data [][]complex128) (b block, err error) {
	b, scratch := d.start(w.ID), make([]complex128, fft.Tile*d.n)
	for i, a := range []int{0, 1, 2, 0, 1} {
		if b, err = d.whole(w, data, b, a); err != nil {
			return b, err
		}
		if err = d.lines(data, b, a, i > 2, scratch); err != nil {
			return b, err
		}
	}
	return b, nil
}

// runs calls f with the first index and the length of every x run of the
// region [off, off+size) of a block of extents ext, z slowest: the order
// both ends of a transpose walk a message in.
func runs(ext, off, size [3]int, f func(i, nx int)) {
	for z := off[2]; z < off[2]+size[2]; z++ {
		for y := off[1]; y < off[1]+size[1]; y++ {
			f((z*ext[1]+y)*ext[0]+off[0], size[0])
		}
	}
}

// whole makes axis a whole on the rank: if grid dimension g splits it, one
// all-to-all per component within g's group swaps it with the highest axis
// s the rank holds whole. The group member at position q then holds a's
// block q and the rank's block of s.
func (d *dense) whole(w *Worker, data [][]complex128, b block, a int) (block, error) {
	g := b.by[a]
	if g < 0 {
		return b, nil
	}
	s, stride := 2, 1
	for b.by[s] >= 0 {
		s--
	}
	for _, p := range d.dims[:g] {
		stride *= p
	}
	e := b.Hi[a] - b.Lo[a]
	peer := func(q int) int { return w.ID + (q-b.Lo[a]/e)*stride }
	nb := b
	nb.Lo[a], nb.Hi[a], nb.by[a] = 0, d.n, -1
	nb.Lo[s], nb.Hi[s], nb.by[s] = b.Lo[a], b.Hi[a], g
	ext, next := [3]int(b.Size()), [3]int(nb.Size())
	for c, v := range data {
		msgs := make([][]float64, w.c.P)
		for q := range d.dims[g] {
			off, size := [3]int{}, ext
			off[s], size[s] = q*e, e
			buf := make([]float64, 0, 2*len(v)/d.dims[g])
			runs(ext, off, size, func(i, nx int) {
				for _, x := range v[i : i+nx] {
					buf = append(buf, real(x), imag(x))
				}
			})
			msgs[peer(q)] = buf
		}
		recv, err := w.AllToAll(msgs)
		if err != nil {
			return b, err
		}
		out := make([]complex128, len(v))
		for q := range d.dims[g] {
			buf := recv[peer(q)]
			off, size := [3]int{}, next
			off[a], size[a] = q*e, e
			runs(next, off, size, func(i, nx int) {
				for k := i; k < i+nx; k++ {
					out[k], buf = complex(buf[0], buf[1]), buf[2:]
				}
			})
		}
		data[c] = out
	}
	return nb, nil
}

// lines transforms every line of axis a, which b holds whole, in place: x
// lines where they lie, y lines strided, and z lines (the forward and
// inverse transforms with op between) in zStage.
func (d *dense) lines(data [][]complex128, b block, a int, inverse bool, scratch []complex128) error {
	if a == 2 {
		return d.zStage(data, b, scratch)
	}
	row, tf := d.plan.Forward, d.plan.ForwardStrided
	if inverse {
		row, tf = d.plan.Inverse, d.plan.InverseStrided
	}
	ext, size := [3]int(b.Size()), [3]int(b.Size())
	if a == 1 {
		size[1] = 1 // the y lines start in each plane's first row
	}
	var ec fft.FirstError
	for _, v := range data {
		runs(ext, [3]int{}, size, func(i, nx int) {
			if a == 0 {
				ec.Record(row(v[i:i+nx], v[i:i+nx]))
				return
			}
			for x := range nx {
				ec.Record(tf(v, i+x, nx, scratch))
			}
		})
	}
	return ec.Err()
}

// zStage runs the z transforms, op and the inverse z transforms on b,
// which holds z whole, fft.Tile adjacent x of one y line at a time (four
// kx, once the x transforms are done), staged in natural order and read
// and written through zRows so the transforms skip their reorders. Where
// Tile does not divide the rank's x extent, the last tile's spare pencils
// carry stale values, which are not scattered back.
func (d *dense) zStage(data [][]complex128, b block, scratch []complex128) error {
	var ec fft.FirstError
	nx, ny := b.Hi[0]-b.Lo[0], b.Hi[1]-b.Lo[1]
	stage := make([]complex128, fft.Tile*d.n)
	tiles := make([][]complex128, len(data))
	for c := range tiles {
		tiles[c] = make([]complex128, fft.Tile*d.n)
	}
	for y := range ny {
		for x0 := 0; x0 < nx; x0 += fft.Tile {
			pencils := min(fft.Tile, nx-x0)
			off := y*nx + x0 // the tile's first pencil at z = 0
			for c, v := range data {
				for z := range d.n {
					copy(stage[fft.Tile*z:][:pencils], v[off+z*ny*nx:])
				}
				ec.Record(d.plan.TileForward(tiles[c], stage, d.zRows, scratch))
			}
			d.op(b.Lo[0]+x0, b.Lo[1]+y, tiles)
			for c, v := range data {
				ec.Record(d.plan.TileInverse(tiles[c], stage, d.zRows, scratch))
				for z := range d.n {
					copy(v[off+z*ny*nx:][:pencils], stage[fft.Tile*z:])
				}
			}
		}
	}
	return ec.Err()
}
