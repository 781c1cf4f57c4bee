package cluster

import (
	"fmt"
	"math"

	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
)

// PencilFFTConvolve runs the traditional convolution with a
// pencil-decomposed 3D FFT on a p1×p2 process grid — the decomposition the
// paper's Eq. 1 models: "the N×N×N point 3D FFT is decomposed into N² 1D
// FFTs... two all-to-all communication stages during 3D FFT computation".
// A convolution therefore crosses the fabric four times (two transposes
// per transform, forward and inverse). Workers hold only N³/P points at
// any moment.
//
// The worker count must be a perfect square (p1 = p2 = √P) dividing N.
func PencilFFTConvolve(c *Cluster, f *grid.Field, kernel green.Kernel) (*grid.Field, error) {
	d := f.Dim
	n := d.Nx
	if d.Ny != n || d.Nz != n {
		return nil, fmt.Errorf("cluster: grid %v must be cubic", d)
	}
	p1 := int(math.Round(math.Sqrt(float64(c.P))))
	if p1*p1 != c.P {
		return nil, fmt.Errorf("cluster: pencil decomposition needs a square worker count, got %d", c.P)
	}
	if n%p1 != 0 {
		return nil, fmt.Errorf("cluster: grid size %d not divisible by process grid %dx%d", n, p1, p1)
	}
	per := n / p1 // every local extent: y and z of an x-pencil, then x and z, then x and y

	plan, err := fft.NewPlan(n)
	if err != nil {
		return nil, err
	}
	out := grid.NewField(d)

	err = c.Run(func(w *Worker) error {
		a := w.ID % p1 // row coordinate: owns y block a (x-pencils) / x block a later
		b := w.ID / p1 // column coordinate: owns z block b / y block b later
		y0, z0 := a*per, b*per
		// The row group (one b) swaps x-pencils and y-pencils, the column
		// group (one a) y-pencils and z-pencils; idx is (z·per + y)·n + x,
		// then (z·per + x)·n + y, then (y·per + x)·n + z.
		inRow := func(q int) (int, bool) { return q % p1, q/p1 == b }
		inCol := func(q int) (int, bool) { return q / p1, q%p1 == a }

		// Phase X: x-pencils.
		bufX := make([]complex128, per*per*n)
		for zl := 0; zl < per; zl++ {
			for yl := 0; yl < per; yl++ {
				row := bufX[(zl*per+yl)*n : (zl*per+yl)*n+n]
				for x := 0; x < n; x++ {
					row[x] = complex(f.At(x, y0+yl, z0+zl), 0)
				}
			}
		}
		forEachPencil := func(buf []complex128, count int, inverse bool) error {
			for i := 0; i < count; i++ {
				row := buf[i*n : (i+1)*n]
				var err error
				if inverse {
					err = plan.Inverse(row, row)
				} else {
					err = plan.Forward(row, row)
				}
				if err != nil {
					return err
				}
			}
			return nil
		}
		pencils := per * per
		if err := forEachPencil(bufX, pencils, false); err != nil {
			return err
		}
		// Transpose 1: x ↔ y within the row group.
		bufY, err := transposePencils(w, bufX, n, per, per*n, n, inRow)
		if err != nil {
			return err
		}
		if err := forEachPencil(bufY, pencils, false); err != nil {
			return err
		}
		// Transpose 2: y ↔ z within the column group.
		bufZ, err := transposePencils(w, bufY, n, per, n, per*n, inCol)
		if err != nil {
			return err
		}
		if err := forEachPencil(bufZ, pencils, false); err != nil {
			return err
		}
		// Pointwise kernel multiply on z-pencils: global (x, y) known.
		x0, yy0 := a*per, b*per
		for yl := 0; yl < per; yl++ {
			for xl := 0; xl < per; xl++ {
				row := bufZ[(yl*per+xl)*n : (yl*per+xl)*n+n]
				for kz := 0; kz < n; kz++ {
					row[kz] *= complex(kernel.Hat(d, x0+xl, yy0+yl, kz), 0)
				}
			}
		}
		// Inverse chain: z FFT, transpose back, y FFT, transpose back, x FFT;
		// each transpose is its own inverse.
		if err := forEachPencil(bufZ, pencils, true); err != nil {
			return err
		}
		bufY, err = transposePencils(w, bufZ, n, per, n, per*n, inCol)
		if err != nil {
			return err
		}
		if err := forEachPencil(bufY, pencils, true); err != nil {
			return err
		}
		bufX, err = transposePencils(w, bufY, n, per, per*n, n, inRow)
		if err != nil {
			return err
		}
		if err := forEachPencil(bufX, pencils, true); err != nil {
			return err
		}
		for zl := 0; zl < per; zl++ {
			for yl := 0; yl < per; yl++ {
				row := bufX[(zl*per+yl)*n : (zl*per+yl)*n+n]
				for x := 0; x < n; x++ {
					out.Set(x, y0+yl, z0+zl, real(row[x]))
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// transposePencils swaps the pencil axis and one local axis within a
// process-grid group. Element (g, l, t) of a pencil buffer — g the group's
// fixed axis, l the swapped local axis, t the pencil axis — sits at
// g·sg + l·sl + t; peer(q) reports whether q is in the group and the block
// of the pencil axis it owns. Every local extent is per, so the buffer is
// the same size after the swap and swapping twice is the identity.
func transposePencils(w *Worker, in []complex128, n, per, sg, sl int, peer func(q int) (int, bool)) ([]complex128, error) {
	msgs := make([][]float64, w.c.P)
	for q := range msgs {
		blk, ok := peer(q)
		if !ok {
			continue // outside the group
		}
		buf := make([]float64, 0, 2*per*per*per)
		for g := 0; g < per; g++ {
			for l := 0; l < per; l++ {
				for _, v := range in[g*sg+l*sl+blk*per:][:per] {
					buf = append(buf, real(v), imag(v))
				}
			}
		}
		msgs[q] = buf
	}
	recv, err := w.AllToAll(msgs)
	if err != nil {
		return nil, err
	}
	out := make([]complex128, len(in))
	for q, buf := range recv {
		blk, ok := peer(q)
		if !ok {
			continue
		}
		for g := 0; g < per; g++ {
			for l := 0; l < per; l++ { // the sender's pencil position, my swapped axis
				for t := 0; t < per; t++ {
					i := 2 * ((g*per+l)*per + t)
					out[g*sg+t*sl+blk*per+l] = complex(buf[i], buf[i+1])
				}
			}
		}
	}
	return out, nil
}
