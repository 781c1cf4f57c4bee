package cluster

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
	"lowcomm3d/internal/sample"
)

// DistFFTConvolve runs the traditional distributed FFT convolution of
// Fig. 1a on P simulated workers with slab decomposition: each worker owns
// N/P z-planes, 2D-transforms them, all-to-all transposes to y-slabs for
// the z-direction 1D FFTs and the kernel multiply, transposes back, and
// 2D-inverse-transforms. Two all-to-all rounds of the full (complex) grid
// cross the fabric — the communication the paper eliminates. (Pencil
// decompositions as modeled by Eq. 1 need two transposes per FFT, four per
// convolution; slab needs one per FFT, so the measured traffic here is a
// lower bound for the traditional method.)
func DistFFTConvolve(c *Cluster, f *grid.Field, kernel green.Kernel) (*grid.Field, error) {
	d := f.Dim
	n := d.Nx
	if d.Ny != n || d.Nz != n {
		return nil, fmt.Errorf("cluster: grid %v must be cubic", d)
	}
	p := c.P
	if n%p != 0 {
		return nil, fmt.Errorf("cluster: grid size %d not divisible by %d workers", n, p)
	}
	zPer := n / p
	plan2d, err := fft.NewPlan2D(n, n, 1)
	if err != nil {
		return nil, err
	}
	planZ, err := fft.NewPlan(n)
	if err != nil {
		return nil, err
	}

	out := grid.NewField(d)
	err = c.Run(func(w *Worker) error {
		// Local slab: z ∈ [z0, z1), complex, plane-major.
		z0 := w.ID * zPer
		slab := make([]complex128, n*n*zPer)
		for zi := 0; zi < zPer; zi++ {
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					slab[zi*n*n+y*n+x] = complex(f.At(x, y, z0+zi), 0)
				}
			}
		}
		// Stage 1: local 2D transforms.
		for zi := 0; zi < zPer; zi++ {
			if err := plan2d.ForwardPlane(slab[zi*n*n : (zi+1)*n*n]); err != nil {
				return err
			}
		}
		// Stage 2: all-to-all transpose z-slabs → y-slabs.
		ySlab, err := w.TransposeZY(slab, n, zPer, false)
		if err != nil {
			return err
		}
		// Stage 3–5: z-direction FFT, kernel multiply, inverse z FFT —
		// all local to the worker's y range. The pencil's copies in and out
		// go through planZ.Perm, so the transforms skip their reorders.
		y0 := w.ID * zPer
		pencil := make([]complex128, n)
		perm := planZ.Perm()
		for yi := 0; yi < zPer; yi++ {
			for x := 0; x < n; x++ {
				for i, z := range perm {
					pencil[i] = ySlab[int(z)*n*zPer+yi*n+x]
				}
				if err := planZ.ForwardFromPerm(pencil); err != nil {
					return err
				}
				for kz, v := range pencil {
					r := kernel.Hat(d, x, y0+yi, kz)
					pencil[kz] = complex(real(v)*r, imag(v)*r)
				}
				if err := planZ.InverseToPerm(pencil); err != nil {
					return err
				}
				for i, z := range perm {
					ySlab[int(z)*n*zPer+yi*n+x] = pencil[i]
				}
			}
		}
		// Stage 6: all-to-all transpose back to z-slabs.
		slab, err = w.TransposeZY(ySlab, n, zPer, true)
		if err != nil {
			return err
		}
		// Stage 7: local inverse 2D transforms, write the owned planes.
		for zi := 0; zi < zPer; zi++ {
			plane := slab[zi*n*n : (zi+1)*n*n]
			if err := plan2d.InversePlane(plane); err != nil {
				return err
			}
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					out.Set(x, y, z0+zi, real(plane[y*n+x]))
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

// TransposeZY exchanges a z-slab (per planes of n×n, plane-major) for a
// y-slab (n z-planes of per×n rows owned in y) via one all-to-all, or the
// reverse when back is true — the building block of slab-decomposed
// distributed FFTs, exported so distributed solvers can reuse it. Layouts,
// with s the slab's own axis and u the other one's global index:
//
//	z-slab: idx = zi*n*n + y*n + x          (s = zi, u = y)
//	y-slab: idx = z*n*per + yi*n + x        (s = yi, u = z)
func (w *Worker) TransposeZY(in []complex128, n, per int, back bool) ([]complex128, error) {
	sIn, uIn, sOut, uOut := n*n, n, n, n*per
	if back {
		sIn, uIn, sOut, uOut = sOut, uOut, sIn, uIn
	}
	out := make([][]float64, w.c.P)
	for q := range out {
		// Block destined for worker q: my planes × q's range of the other axis.
		buf := make([]float64, 0, 2*per*per*n)
		for a := 0; a < per; a++ {
			for b := 0; b < per; b++ {
				for _, v := range in[a*sIn+(q*per+b)*uIn:][:n] {
					buf = append(buf, real(v), imag(v))
				}
			}
		}
		out[q] = buf
	}
	recv, err := w.AllToAll(out)
	if err != nil {
		return nil, err
	}
	res := make([]complex128, n*n*per)
	for q, buf := range recv {
		for a := 0; a < per; a++ { // the sender's plane, my range of the other axis
			for b := 0; b < per; b++ { // my plane
				row := res[b*sOut+(q*per+a)*uOut:][:n]
				for x := range row {
					i := 2 * ((a*per+b)*n + x)
					row[x] = complex(buf[i], buf[i+1])
				}
			}
		}
	}
	return res, nil
}

// LowCommResult is the outcome of the proposed distributed convolution.
type LowCommResult struct {
	Field       *grid.Field
	FabricBytes int64         // bytes that crossed the fabric (cluster.Stats), aborted generations included
	Generations int           // worker generations run; 1 when no rank died
	Accumulate  time.Duration // the slowest rank's accumulation of its boxes
}

// convRank is one rank's share of LowCommConvolve: its boxes that are not
// all zero, and a pipeline and an output per box.
type convRank struct {
	src    []int
	locals []*conv.Local
	outs   [][]*sample.Compressed
}

// policyTrees returns the trees every rank places its boxes from on plans:
// sample.DefaultPolicy at far rate farRate, translates of one memoized
// geometry.
func policyTrees(plans *conv.PlanSet, farRate int) func(int, grid.Box) (*octree.Tree, error) {
	return func(_ int, b grid.Box) (*octree.Tree, error) {
		return plans.PolicyTree(sample.DefaultPolicy(b, farRate))
	}
}

// LowCommExchangeBytes predicts, exactly, the fabric bytes the single
// sparse exchange of LowCommConvolve(d, subSize, farRate) moves on P healthy
// workers for an input with no all-zero sub-domain: Σ over workers w and
// peers q≠w of 8·len(msg[w→q]). The routes depend only on the
// decomposition and the sampling octrees — never on field values — so the
// prediction reads the group lengths off the Exchange's plan without
// running any transforms. It counts what each peer's boxes read, each
// sample once per peer, and a box index per group; the Eq. 6 model figure
// TOursBytes counts each worker's whole output once.
func LowCommExchangeBytes(d grid.Dim3, p, subSize, farRate int) (int64, error) {
	plans, err := conv.NewPlanSet(d, 1)
	if err != nil {
		return 0, err
	}
	x, err := NewExchange(d, subSize, p, 1, policyTrees(plans, farRate))
	if err != nil {
		return 0, err
	}
	total := int64(0)
	for j := range x.Boxes {
		for q := range p {
			if q != j%p {
				total += int64(8 * x.groupLen(j, q))
			}
		}
	}
	return total, nil
}

// LowCommConvolve runs the proposed method of Fig. 1b on P simulated
// workers and returns conv.Decomposed.Run's field bit for bit, for any P.
// It runs the Exchange's layout: rank q convolves its boxes j ≡ q mod P
// that are not all zero locally, then a single all-to-all ships each peer
// only the samples the peer's boxes read, and each rank adds them into its
// own boxes in job order (Algorithm 2 line 6).
//
// On a fault-injecting transport, drops, delays, duplicates and corruption
// heal in the deadline/retry layer. A crashed or unresponsive worker aborts
// the generation: the cluster epoch is reset and every worker runs again,
// up to 2P+2 generations, after which the error wraps the last worker crash
// (errors.As reaches *CrashError).
func LowCommConvolve(c *Cluster, f *grid.Field, kernel green.Kernel, subSize, farRate int, cfg conv.Config) (*LowCommResult, error) {
	d := f.Dim
	// One plan set and one kernel table for the call: both are read-only
	// and shared by every worker's pipelines. The exchange plans its routes
	// on the trees the pipelines place, and a box whose input is all zero
	// gets no pipeline, only its tree.
	plans, err := conv.NewPlanSet(d, cfg.Workers)
	if err != nil {
		return nil, err
	}
	pw := conv.KernelPointwise(d, kernel)
	boxes, err := grid.Decompose(d, subSize)
	if err != nil {
		return nil, err
	}
	locals := make([]*conv.Local, len(boxes))
	x, err := NewExchange(d, subSize, c.P, 1, func(j int, b grid.Box) (*octree.Tree, error) {
		if f.BoxAllZero(b) {
			return plans.PolicyTree(sample.DefaultPolicy(b, farRate))
		}
		local, err := plans.NewPolicyLocal(sample.DefaultPolicy(b, farRate), 1, pw, cfg)
		if err != nil {
			return nil, err
		}
		locals[j] = local
		return local.Tree(), nil
	})
	if err != nil {
		return nil, err
	}
	ranks := make([]*convRank, c.P)
	for q := range ranks {
		r := &convRank{}
		for _, j := range x.Owned(q) {
			if locals[j] != nil {
				r.src = append(r.src, j)
				r.locals = append(r.locals, locals[j])
				r.outs = append(r.outs, []*sample.Compressed{sample.NewCompressed(locals[j].Tree())})
			}
		}
		ranks[q] = r
	}

	res := &LowCommResult{}
	bytesBefore, _, _, _ := c.Stats.Snapshot()
	maxGen := 2*c.P + 2
	for {
		res.Generations++
		out := grid.NewField(d)
		acc := make([]time.Duration, c.P)
		errs := c.RunAll(func(w *Worker) error {
			// Every box's local pipeline — no communication at all (Fig.
			// 1b: "the FFT-based convolution computation is local to the
			// workers till the last step").
			r := ranks[w.ID]
			for i, j := range r.src {
				sub, err := f.ExtractBox(x.Boxes[j])
				if err != nil {
					return err
				}
				_, _, err = r.locals[i].RunInto(sub, r.outs[i][0])
				r.locals[i].ReleaseBuffers()
				if err != nil {
					return err
				}
			}
			recv, err := w.AllToAll(x.Encode(r.src, r.outs))
			if err != nil {
				return err
			}
			t0 := time.Now()
			in, err := x.Decode(w.ID, recv)
			if err != nil {
				return err
			}
			err = x.Accumulate(w.ID, in, func(int, int) (*grid.Field, grid.Point) { return out, grid.Point{} })
			acc[w.ID] = time.Since(t0)
			return err
		})
		var cause error // the last worker's own crash, else the first fault
		for _, e := range errs {
			var ce *CrashError
			var fe *FaultError
			switch {
			case e == nil:
			case errors.As(e, &ce):
				cause = e
			case errors.As(e, &fe):
				if cause == nil {
					cause = e
				}
			default:
				return nil, e
			}
		}
		if cause == nil {
			res.Field, res.Accumulate = out, slices.Max(acc)
			break
		}
		if res.Generations == maxGen {
			return nil, fmt.Errorf("cluster: low-comm convolution gave up after %d generations: %w", maxGen, cause)
		}
		c.ResetEpoch()
	}
	bytesAfter, _, _, _ := c.Stats.Snapshot()
	res.FabricBytes = bytesAfter - bytesBefore
	return res, nil
}
