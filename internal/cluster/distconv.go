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
	SampleBytes int64         // compressed bytes that crossed the fabric, aborted generations included
	Generations int           // worker generations run; 1 when no rank died
	Accumulate  time.Duration // the slowest rank's accumulation of its z-slab
}

// lowComm is the layout LowCommConvolve runs and LowCommExchangeBytes
// prices: the jobs dealt round robin to the ranks by grid.Partition — job i
// is rank i mod P's (i div P)-th — each sampled by the default policy, and
// one output z-slab per rank.
type lowComm struct {
	dim   grid.Dim3
	far   int
	jobs  int
	parts [][]grid.Box
}

func newLowComm(d grid.Dim3, p int, jobs []grid.Box, far int) (*lowComm, error) {
	n := d.Nx
	if d.Ny != n || d.Nz != n {
		return nil, fmt.Errorf("cluster: grid %v must be cubic", d)
	}
	if p < 1 || n%p != 0 {
		return nil, fmt.Errorf("cluster: grid size %d not divisible by %d workers", n, p)
	}
	parts, err := grid.Partition(jobs, p)
	if err != nil {
		return nil, err
	}
	return &lowComm{dim: d, far: far, jobs: len(jobs), parts: parts}, nil
}

// region is rank q's output z-slab.
func (l *lowComm) region(q int) grid.Box {
	n := l.dim.Nx
	zPer := n / len(l.parts)
	return grid.BoxAt(grid.Point{0, 0, q * zPer}, n, n, zPer)
}

// convolve runs one box's local pipeline — no communication at all (Fig.
// 1b: "the FFT-based convolution computation is local to the workers till
// the last step").
func (l *lowComm) convolve(f *grid.Field, b grid.Box, plans *conv.PlanSet, pw conv.Pointwise, cfg conv.Config) (*sample.Compressed, error) {
	local, err := plans.NewPolicyLocal(sample.DefaultPolicy(b, l.far), pw, cfg)
	if err != nil {
		return nil, err
	}
	sub, err := f.ExtractBox(b)
	if err != nil {
		return nil, err
	}
	res, _, err := local.Run(sub)
	local.ReleaseBuffers()
	return res, err
}

// messages frames a rank's results, one per owned box in parts order, for
// the single sparse exchange: the message to peer q is, per owned box, one
// EncodePatches group of the box's patches that intersect q's z-slab — one
// count per (box, peer) pair, which lets q add every box in job order.
func (l *lowComm) messages(results []*sample.Compressed) [][]float64 {
	msgs := make([][]float64, len(l.parts))
	for q := range msgs {
		region := l.region(q)
		for _, res := range results {
			msgs[q] = append(msgs[q], sample.EncodePatches(res.Patches(region))...)
		}
	}
	return msgs
}

// accumulate adds the received groups to rank w's z-slab of out in job
// order — sender q's j-th group is job q + j·P — the order conv.Accumulate
// adds the same results in; a voxel's value depends on that order alone, so
// it is conv.Decomposed.Run's bit for bit.
func (l *lowComm) accumulate(out *grid.Field, w int, recv [][]float64) error {
	groups := make([][][]sample.Patch, len(recv))
	for q, msg := range recv {
		var err error
		if groups[q], err = sample.DecodePatchGroups(msg); err != nil {
			return fmt.Errorf("cluster: exchange from rank %d: %w", q, err)
		}
		if len(groups[q]) != len(l.parts[q]) {
			return fmt.Errorf("cluster: rank %d sent %d patch groups for %d boxes", q, len(groups[q]), len(l.parts[q]))
		}
	}
	var ps []sample.Patch
	for i, p := 0, len(l.parts); i < l.jobs; i++ {
		ps = append(ps, groups[i%p][i/p]...)
	}
	return sample.AddPatches(out, grid.Point{}, l.region(w), ps, 1)
}

// LowCommExchangeBytes predicts, exactly, the fabric bytes the single
// sparse exchange of LowCommConvolve(d, subSize, farRate) moves on P healthy
// workers for an input with no all-zero sub-domain: Σ over workers w and
// peers q≠w of 8·len(msg[w→q]). The patch layout depends only on the
// decomposition and sampling octrees — never on field values — so the
// prediction frames zero-filled results of the same layout without running
// any transforms. This is the implementation-exact counterpart of the Eq. 6
// model figure TOursBytes (which ignores patch metadata and counts each
// worker's whole output once rather than per-peer slab intersections).
func LowCommExchangeBytes(d grid.Dim3, p, subSize, farRate int) (int64, error) {
	boxes, err := grid.Decompose(d, subSize)
	if err != nil {
		return 0, err
	}
	l, err := newLowComm(d, p, boxes, farRate)
	if err != nil {
		return 0, err
	}
	total := int64(0)
	for w, owned := range l.parts {
		results := make([]*sample.Compressed, len(owned))
		for j, b := range owned {
			tree, err := sample.DefaultPolicy(b, l.far).Tree(l.dim)
			if err != nil {
				return 0, err
			}
			results[j] = sample.NewCompressed(tree)
		}
		for q, msg := range l.messages(results) {
			if q != w {
				total += int64(8 * len(msg))
			}
		}
	}
	return total, nil
}

// LowCommConvolve runs the proposed method of Fig. 1b on P simulated
// workers and returns conv.Decomposed.Run's field bit for bit, for any P.
// All-zero sub-domains are skipped and the rest dealt by grid.Partition;
// every worker convolves its sub-domains locally, then a single all-to-all
// ships each peer only the patches intersecting its output z-slab, framed
// per box, and each worker accumulates its slab in job order (Algorithm 2
// line 6).
//
// On a fault-injecting transport, drops, delays, duplicates and corruption
// heal in the deadline/retry layer. A crashed or unresponsive worker aborts
// the generation: the cluster epoch is reset and every worker runs again,
// up to 2P+2 generations, after which the error wraps the last worker crash
// (errors.As reaches *CrashError).
func LowCommConvolve(c *Cluster, f *grid.Field, kernel green.Kernel, subSize, farRate int, cfg conv.Config) (*LowCommResult, error) {
	d := f.Dim
	boxes, err := grid.Decompose(d, subSize)
	if err != nil {
		return nil, err
	}
	var jobs []grid.Box
	for _, b := range boxes {
		if !f.BoxAllZero(b) {
			jobs = append(jobs, b)
		}
	}
	l, err := newLowComm(d, c.P, jobs, farRate)
	if err != nil {
		return nil, err
	}
	// One plan set and one kernel table for the call: both are read-only
	// and shared by every worker's pipelines.
	plans, err := conv.NewPlanSet(d, cfg.Workers)
	if err != nil {
		return nil, err
	}
	pw := conv.KernelPointwise(d, kernel)

	res := &LowCommResult{}
	bytesBefore, _, _, _ := c.Stats.Snapshot()
	maxGen := 2*c.P + 2
	for {
		res.Generations++
		out := grid.NewField(d)
		acc := make([]time.Duration, c.P)
		errs := c.RunAll(func(w *Worker) error {
			results := make([]*sample.Compressed, len(l.parts[w.ID]))
			for j, b := range l.parts[w.ID] {
				r, err := l.convolve(f, b, plans, pw, cfg)
				if err != nil {
					return err
				}
				results[j] = r
			}
			recv, err := w.AllToAll(l.messages(results))
			if err != nil {
				return err
			}
			t0 := time.Now()
			err = l.accumulate(out, w.ID, recv)
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
	res.SampleBytes = bytesAfter - bytesBefore
	return res, nil
}
