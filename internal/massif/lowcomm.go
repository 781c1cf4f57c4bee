package massif

import (
	"fmt"
	"math"

	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
	"lowcomm3d/internal/sample"
)

// LowCommOptions tunes the proposed solver (Algorithm 2).
type LowCommOptions struct {
	Options
	SubSize int  // k — sub-domain edge length
	FarRate int  // far-field downsampling rate (paper: 16 or 32)
	FullRes bool // rate-1 sampling everywhere: exact mode for validation
	BatchB  int  // pencils per batch (§5.4)

	// Heal switches the distributed solve from degrade-on-fault to
	// heal-on-fault (supervised respawn from durable checkpoints,
	// straggler speculation, OOM-driven k-refinement). Nil keeps PR 1's
	// freeze-and-omit behavior.
	Heal *HealOptions
}

// LowCommStats reports the communication the proposed method performs.
type LowCommStats struct {
	SubDomains        int
	SamplesPerIter    int // sparse samples exchanged per iteration (all components)
	BytesPerIter      int // compressed bytes exchanged per iteration
	DenseBytesPerIter int // what the traditional scheme moves per iteration
	Iterations        int
}

// LowCommFaultReport describes the degraded-mode outcome of a distributed
// solve on a faulty fabric: which ranks died, how many iterations were
// redone from a strain checkpoint, and whether the solution omits dead
// workers' live contributions (their sub-domains are frozen at their last
// checkpointed strain).
type LowCommFaultReport struct {
	Dead     []int // ranks declared dead during the solve
	Restarts int   // iterations redone from a strain checkpoint
	Degraded bool  // true when any rank died
}

// LowCommResult bundles the solution with its communication accounting.
type LowCommResult struct {
	Result
	Comm  LowCommStats
	Fault LowCommFaultReport // zero value on a healthy run
	Heal  *HealReport        // non-nil only for self-healing solves
}

// SolveLowComm runs the paper's Algorithm 2: each iteration convolves every
// sub-domain's stress field with Γ̂ locally (slab/pencil pipeline,
// octree-sampled inverse) and exchanges only the compressed samples in a
// single accumulation step, instead of the traditional scheme's all-to-all
// transposes inside every one of the six component FFTs.
func SolveLowComm(m *Microstructure, E grid.SymTensor, opt LowCommOptions) (*LowCommResult, error) {
	o := opt.Options.withDefaults()
	boxes, err := grid.Decompose(m.Dim, opt.SubSize)
	if err != nil {
		return nil, err
	}
	lambda0, mu0 := m.ReferenceMedium()
	gamma := green.Gamma{Lambda0: lambda0, Mu0: mu0}
	// Same relative-residual normalization as SolveReference.
	normE := E.Norm() * math.Sqrt(float64(m.Dim.Len()))
	if normE == 0 {
		return nil, fmt.Errorf("massif: applied strain must be nonzero")
	}

	// Build the per-sub-domain pipelines once; trees are reused across
	// iterations, and every pipeline shares one pair of FFT plans.
	plans, err := newTensorPlans(m.Dim, opt.Workers)
	if err != nil {
		return nil, err
	}
	locals := make([]*tensorLocal, len(boxes))
	for i, b := range boxes {
		var tree *octree.Tree
		if opt.FullRes {
			tree, err = sample.Uniform{Rate: 1, CellSize: min(8, m.Dim.Nx)}.Tree(m.Dim)
		} else {
			far := opt.FarRate
			if far == 0 {
				far = 16
			}
			tree, err = sample.DefaultPolicy(b, far).Tree(m.Dim)
		}
		if err != nil {
			return nil, err
		}
		locals[i], err = newTensorLocal(m.Dim, b, gamma, tree, opt, plans)
		if err != nil {
			return nil, err
		}
	}

	eps := grid.NewTensorField(m.Dim)
	eps.Fill(E)
	stress := grid.NewTensorField(m.Dim)
	out := &LowCommResult{}
	out.Comm.SubDomains = len(boxes)
	out.Result.Strain = eps
	out.Result.Stress = stress

	delta := grid.NewTensorField(m.Dim)
	iterC := o.Trace.Counter("massif.iterations")
	sampC := o.Trace.Counter("massif.samples")
	byteC := o.Trace.Counter("massif.sample_bytes")
	iterH := o.Trace.Histogram("massif.iteration_seconds")
	for iter := 0; iter < o.MaxIter; iter++ {
		iterSpan := o.Trace.Start("massif.iteration")
		iterC.Add(1)
		if _, err := m.StressField(eps, stress); err != nil {
			iterSpan.End()
			return nil, err
		}
		// Local convolution of every sub-domain (Algorithm 2 lines 3–5),
		// then accumulation of the compressed results (line 6).
		for v := range delta.Comp {
			delta.Comp[v].Zero()
		}
		iterSamples, iterBytes := 0, 0
		for i, b := range boxes {
			sub := make([]*grid.Field, grid.NumVoigt)
			for v := 0; v < grid.NumVoigt; v++ {
				sub[v], err = stress.Comp[v].ExtractBox(b)
				if err != nil {
					iterSpan.End()
					return nil, err
				}
			}
			results, nsamp, nbytes, err := locals[i].run(sub)
			if err != nil {
				iterSpan.End()
				return nil, err
			}
			iterSamples += nsamp
			iterBytes += nbytes
			for v := 0; v < grid.NumVoigt; v++ {
				if err := results[v].AddTo(delta.Comp[v], 1); err != nil {
					iterSpan.End()
					return nil, err
				}
			}
		}
		out.Comm.SamplesPerIter = iterSamples
		out.Comm.BytesPerIter = iterBytes
		sampC.Add(int64(iterSamples))
		byteC.Add(int64(iterBytes))
		// Pin the mean strain to E: the exact Δε̂(0) is zero; compression
		// can drift the mean slightly, so project it out.
		for v := range delta.Comp {
			mean := delta.Comp[v].Mean()
			if mean != 0 {
				for i := range delta.Comp[v].Data {
					delta.Comp[v].Data[i] -= mean
				}
			}
		}
		// ε ← ε − Δε (line 7) and residual.
		delta2 := 0.0
		for v := 0; v < grid.NumVoigt; v++ {
			w := 1.0
			if v >= grid.VYZ {
				w = 2.0
			}
			dat := eps.Comp[v].Data
			for i, d := range delta.Comp[v].Data {
				dat[i] -= d
				delta2 += w * d * d
			}
		}
		r := math.Sqrt(delta2) / normE
		out.Residuals = append(out.Residuals, r)
		out.Iterations = iter + 1
		iterH.Observe(iterSpan.End())
		if r < o.Tol {
			out.Converged = true
			break
		}
	}
	out.Comm.Iterations = out.Iterations
	out.Comm.DenseBytesPerIter = 8 * m.Dim.Len() * grid.NumVoigt * len(boxes)
	if _, err := m.StressField(eps, stress); err != nil {
		return nil, err
	}
	return out, nil
}

// boxTree builds the sampling tree for one sub-domain under opt: rate-1
// everywhere in FullRes validation mode, otherwise the default near/far
// policy at the configured far rate.
func boxTree(m *Microstructure, b grid.Box, opt LowCommOptions) (*octree.Tree, error) {
	if opt.FullRes {
		return sample.Uniform{Rate: 1, CellSize: min(8, m.Dim.Nx)}.Tree(m.Dim)
	}
	far := opt.FarRate
	if far == 0 {
		far = 16
	}
	return sample.DefaultPolicy(b, far).Tree(m.Dim)
}

// tensorLocal is the tensor-valued analogue of conv.Local: six slabs (one
// per Voigt component), a batched z-pencil stage that applies the Γ̂
// contraction across components per frequency point, and octree-sampled
// inverse transforms.
type tensorLocal struct {
	dim    grid.Dim3
	sub    grid.Box
	gamma  green.Gamma
	tree   *octree.Tree
	opt    LowCommOptions
	zIndex map[int][]tlGather
	keptZ  []int

	tensorPlans // plan2d, planZ: shared with the solve's other pipelines

	// Reused per-run buffers (run is not safe for concurrent use).
	slabBufs  [][]complex128
	planeBufs [][]complex128
}

// releaseBuffers drops the reused slab/plane buffers so a worker that
// streams its boxes one pipeline at a time holds only ONE set of live
// slabs between runs. This is what makes k-refinement genuinely reduce a
// worker's ledgered footprint: slabs scale as N²k per pipeline, so
// holding all pipelines simultaneously would grow total memory as k
// shrinks (more boxes), while the streamed peak shrinks with k.
func (t *tensorLocal) releaseBuffers() {
	t.slabBufs = nil
	t.planeBufs = nil
}

type tlGather struct {
	x, y   int32
	sample int32
}

// tensorPlans is the transform pair every tensorLocal of one solve (one
// rank, in the distributed solves) shares: the plans depend only on the
// grid and are read-only after construction.
type tensorPlans struct {
	plan2d *fft.Plan2D
	planZ  *fft.Plan
}

func newTensorPlans(dim grid.Dim3, workers int) (tensorPlans, error) {
	var p tensorPlans
	var err error
	if p.plan2d, err = fft.NewPlan2D(dim.Nx, dim.Ny, workers); err != nil {
		return p, err
	}
	p.planZ, err = fft.NewPlan(dim.Nz)
	return p, err
}

func newTensorLocal(dim grid.Dim3, sub grid.Box, gamma green.Gamma, tree *octree.Tree, opt LowCommOptions, plans tensorPlans) (*tensorLocal, error) {
	s := sub.Size()
	if s[0] != s[1] || s[1] != s[2] {
		return nil, fmt.Errorf("massif: sub-domain %v must be cubic", sub)
	}
	t := &tensorLocal{dim: dim, sub: sub, gamma: gamma, tree: tree, opt: opt, tensorPlans: plans}
	t.zIndex = make(map[int][]tlGather)
	tree.ForEachSample(func(cell, sm, x, y, z int) {
		t.zIndex[z] = append(t.zIndex[z], tlGather{x: int32(x), y: int32(y), sample: int32(sm)})
	})
	for z := range t.zIndex {
		t.keptZ = append(t.keptZ, z)
	}
	for i := 1; i < len(t.keptZ); i++ {
		for j := i; j > 0 && t.keptZ[j] < t.keptZ[j-1]; j-- {
			t.keptZ[j], t.keptZ[j-1] = t.keptZ[j-1], t.keptZ[j]
		}
	}
	return t, nil
}

// run convolves the six component fields of one sub-domain with Γ̂ and
// returns per-component compressed results plus sample/byte counts.
func (t *tensorLocal) run(sub []*grid.Field) ([]*sample.Compressed, int, int, error) {
	n := t.dim.Nx
	k := t.sub.Hi[0] - t.sub.Lo[0]
	ox, oy, oz := t.sub.Lo[0], t.sub.Lo[1], t.sub.Lo[2]
	workers := fft.Workers(t.opt.Workers)

	// Stage A: six N×N×k slabs of 2D-transformed zero-padded slices.
	// Buffers are reused across iterations and zeroed before the padded
	// block insert.
	if t.slabBufs == nil {
		t.slabBufs = make([][]complex128, grid.NumVoigt)
	}
	slabs := t.slabBufs
	var ec fft.FirstError
	for v := 0; v < grid.NumVoigt; v++ {
		if len(slabs[v]) != n*n*k {
			slabs[v] = make([]complex128, n*n*k)
		} else {
			for i := range slabs[v] {
				slabs[v][i] = 0
			}
		}
		sv := sub[v]
		slab := slabs[v]
		fft.ParallelFor(k, workers, func(w, zi int) {
			if ec.Failed() {
				return
			}
			plane := slab[zi*n*n : (zi+1)*n*n]
			for yy := 0; yy < k; yy++ {
				for xx := 0; xx < k; xx++ {
					plane[(oy+yy)*n+(ox+xx)] = complex(sv.At(xx, yy, zi), 0)
				}
			}
			ec.Record(t.plan2d.ForwardPlane(plane))
		})
		if err := ec.Err(); err != nil {
			return nil, 0, 0, err
		}
	}

	// Stage B: z-pencil transforms with the Γ̂ contraction as the
	// pointwise stage; only sampled z planes are kept.
	nz := len(t.keptZ)
	if t.planeBufs == nil {
		t.planeBufs = make([][]complex128, grid.NumVoigt)
	}
	planes := t.planeBufs
	for v := range planes {
		if len(planes[v]) != n*n*nz {
			planes[v] = make([]complex128, n*n*nz)
		}
	}
	batch := t.opt.BatchB
	if batch <= 0 || batch > n*n {
		batch = n * n
	}
	type ws struct {
		spec [grid.NumVoigt][]complex128
		inv  []complex128
	}
	scr := make([]ws, workers)
	for w := range scr {
		for v := range scr[w].spec {
			scr[w].spec[v] = make([]complex128, n)
		}
		scr[w].inv = make([]complex128, n)
	}
	for start := 0; start < n*n; start += batch {
		end := start + batch
		if end > n*n {
			end = n * n
		}
		fft.ParallelFor(end-start, workers, func(w, i int) {
			if ec.Failed() {
				return
			}
			p := start + i
			x := p % n
			y := p / n
			sc := &scr[w]
			for v := 0; v < grid.NumVoigt; v++ {
				for j := range sc.spec[v] {
					sc.spec[v][j] = 0
				}
				for zi := 0; zi < k; zi++ {
					sc.spec[v][oz+zi] = slabs[v][zi*n*n+p]
				}
				if err := t.planZ.Forward(sc.spec[v], sc.spec[v]); err != nil {
					ec.Record(err)
					return
				}
			}
			// Γ̂ contraction per frequency (Algorithm 2 line 4): couple
			// the six components through green.Gamma, real and imaginary
			// parts separately, with the same Nyquist-zeroing convention
			// as the reference solver (green.Gamma.ApplyAt).
			for kz := 0; kz < n; kz++ {
				var re, im grid.SymTensor
				for v := 0; v < grid.NumVoigt; v++ {
					c := sc.spec[v][kz]
					re[v] = real(c)
					im[v] = imag(c)
				}
				gre := t.gamma.ApplyAt(t.dim, x, y, kz, re)
				gim := t.gamma.ApplyAt(t.dim, x, y, kz, im)
				for v := 0; v < grid.NumVoigt; v++ {
					sc.spec[v][kz] = complex(gre[v], gim[v])
				}
			}
			for v := 0; v < grid.NumVoigt; v++ {
				if err := t.planZ.Inverse(sc.inv, sc.spec[v]); err != nil {
					ec.Record(err)
					return
				}
				for slot, z := range t.keptZ {
					planes[v][slot*n*n+p] = sc.inv[z]
				}
			}
		})
		if err := ec.Err(); err != nil {
			return nil, 0, 0, err
		}
	}

	// Stage C: inverse 2D per kept plane per component, gather samples.
	results := make([]*sample.Compressed, grid.NumVoigt)
	nsamp, nbytes := 0, 0
	for v := 0; v < grid.NumVoigt; v++ {
		results[v] = sample.NewCompressed(t.tree)
		for slot, z := range t.keptZ {
			plane := planes[v][slot*n*n : (slot+1)*n*n]
			if err := t.plan2d.InversePlane(plane); err != nil {
				return nil, 0, 0, err
			}
			for _, g := range t.zIndex[z] {
				results[v].Samples[g.sample] = real(plane[int(g.y)*n+int(g.x)])
			}
		}
		nsamp += len(results[v].Samples)
		nbytes += results[v].MemoryBytes()
	}
	return results, nsamp, nbytes, nil
}
