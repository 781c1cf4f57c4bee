package massif

import (
	"fmt"
	"math"

	"lowcomm3d/internal/conv"
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

	// Heal tunes the distributed solve's recovery (checkpoint store,
	// supervision, admission control); nil selects HealOptions' zero
	// value. SolveLowComm ignores it.
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

// LowCommResult bundles the solution with its communication accounting.
type LowCommResult struct {
	Result
	Comm LowCommStats
	Heal *HealReport // non-nil only for SolveLowCommDistributed
}

// SolveLowComm runs the paper's Algorithm 2: each iteration convolves every
// sub-domain's stress field with Γ̂ locally (slab/pencil pipeline,
// octree-sampled inverse) and exchanges only the compressed samples in a
// single accumulation step, instead of the traditional scheme's all-to-all
// transposes inside every one of the six component FFTs. It is the
// distributed solve's loop on one rank that owns every sub-domain, where the
// exchange and the reduction are identities.
func SolveLowComm(m *Microstructure, E grid.SymTensor, opt LowCommOptions) (*LowCommResult, error) {
	s, err := newLowComm(m, E, opt, 1)
	if err != nil {
		return nil, err
	}
	r, err := s.newRank(0, nil)
	if err != nil {
		return nil, err
	}
	if err := r.run(0, oneRank{}); err != nil {
		return nil, err
	}
	return s.finish()
}

// lowComm is one Algorithm 2 solve on p ranks: the decomposition and its
// round-robin partition, Γ̂, the residual normalization, and the result
// every rank assembles its sub-domains into. Rank q writes only its own
// slots of the per-rank slices, and rank 0 alone the iteration outcome.
type lowComm struct {
	m     *Microstructure
	E     grid.SymTensor
	opt   LowCommOptions
	o     Options // opt.Options with defaults
	gamma green.Gamma
	normE float64
	p     int
	kd    grid.Dim3
	boxes []grid.Box
	parts [][]grid.Box
	nb    [3]int // boxes per axis: the k-lattice

	out       *LowCommResult
	residuals []float64 // by iteration
	samples   []int     // by rank: samples sent per iteration
	bytes     []int
}

func newLowComm(m *Microstructure, E grid.SymTensor, opt LowCommOptions, p int) (*lowComm, error) {
	boxes, err := grid.Decompose(m.Dim, opt.SubSize)
	if err != nil {
		return nil, err
	}
	parts, err := grid.Partition(boxes, p)
	if err != nil {
		return nil, err
	}
	// Same relative-residual normalization as SolveReference.
	normE := E.Norm() * math.Sqrt(float64(m.Dim.Len()))
	if normE == 0 {
		return nil, fmt.Errorf("massif: applied strain must be nonzero")
	}
	lambda0, mu0 := m.ReferenceMedium()
	o, k := opt.Options.withDefaults(), opt.SubSize
	return &lowComm{
		m: m, E: E, opt: opt, o: o, p: p, normE: normE,
		kd: grid.Cube(k), boxes: boxes, parts: parts,
		nb:      [3]int{m.Dim.Nx / k, m.Dim.Ny / k, m.Dim.Nz / k},
		samples: make([]int, p), bytes: make([]int, p),
		residuals: make([]float64, o.MaxIter),
		gamma:     green.Gamma{Lambda0: lambda0, Mu0: mu0},
		out: &LowCommResult{
			Result: Result{Strain: grid.NewTensorField(m.Dim), Stress: grid.NewTensorField(m.Dim)},
			Comm:   LowCommStats{SubDomains: len(boxes), DenseBytesPerIter: 8 * m.Dim.Len() * grid.NumVoigt * len(boxes)},
		},
	}, nil
}

// forBoxes calls f with the index of every sub-domain that c overlaps, found
// on the k-lattice instead of by testing every box.
func (s *lowComm) forBoxes(c grid.Box, f func(i int)) {
	k := s.kd.Nx
	for bz := c.Lo[2] / k; bz <= (c.Hi[2]-1)/k; bz++ {
		for by := c.Lo[1] / k; by <= (c.Hi[1]-1)/k; by++ {
			for bx := c.Lo[0] / k; bx <= (c.Hi[0]-1)/k; bx++ {
				f(bx + s.nb[0]*(by+s.nb[1]*bz))
			}
		}
	}
}

// finish completes the accounting and computes the stress of the assembled
// strain.
func (s *lowComm) finish() (*LowCommResult, error) {
	out := s.out
	out.Residuals = s.residuals[:out.Iterations]
	out.Comm.Iterations = out.Iterations
	for q := range s.samples {
		out.Comm.SamplesPerIter += s.samples[q]
		out.Comm.BytesPerIter += s.bytes[q]
	}
	if _, err := s.m.StressField(out.Strain, out.Stress); err != nil {
		return nil, err
	}
	return out, nil
}

// rank is one rank's share of the solve: the strain and Δε of its owned
// sub-domains, one σ scratch, and a conv.Local per box on one PlanSet. The
// compressed outputs are handed back to RunComponents run after run, so
// their sample storage never moves and send — per destination rank and
// component, the patches overlapping a box that rank owns, in box then
// cell order — is built once.
type rank struct {
	s      *lowComm
	id     int
	plans  *conv.PlanSet
	owned  []grid.Box
	eps    []*grid.TensorField
	delta  []*grid.TensorField
	locals []*conv.Local
	outs   [][]*sample.Compressed
	sigma  *grid.TensorField
	send   [][][]sample.Patch

	samples, bytes int // per iteration, over the owned boxes
}

// newRank builds rank id's state at the applied strain E, on plans (a fresh
// PlanSet when nil).
func (s *lowComm) newRank(id int, plans *conv.PlanSet) (*rank, error) {
	if plans == nil {
		var err error
		if plans, err = conv.NewPlanSet(s.m.Dim, s.opt.Workers); err != nil {
			return nil, err
		}
	}
	r := &rank{s: s, id: id, plans: plans, owned: s.parts[id], sigma: grid.NewTensorField(s.kd)}
	r.send = make([][][]sample.Patch, s.p)
	for q := range r.send {
		r.send[q] = make([][]sample.Patch, grid.NumVoigt)
	}
	sent, stamp := make([]int, s.p), 0 // sent[q]: stamp of the last patch sent to q
	for _, b := range r.owned {
		local, err := gammaLocal(plans, s.m, b, s.gamma, s.opt)
		if err != nil {
			return nil, err
		}
		eps := grid.NewTensorField(s.kd)
		eps.Fill(s.E)
		outs := make([]*sample.Compressed, grid.NumVoigt)
		for v := range outs {
			out := sample.NewCompressed(local.Tree())
			outs[v] = out
			r.samples += len(out.Samples)
			r.bytes += out.MemoryBytes()
			off := 0
			for _, cell := range out.Tree.Cells {
				pt := sample.Patch{Cell: cell, Samples: out.Samples[off : off+cell.SampleCount()]}
				off += len(pt.Samples)
				stamp++
				s.forBoxes(cell.Box, func(j int) {
					if q := j % s.p; sent[q] != stamp {
						sent[q] = stamp
						r.send[q][v] = append(r.send[q][v], pt)
					}
				})
			}
		}
		r.locals = append(r.locals, local)
		r.eps = append(r.eps, eps)
		r.delta = append(r.delta, grid.NewTensorField(s.kd))
		r.outs = append(r.outs, outs)
	}
	return r, nil
}

// policy is what a solver adds to the one loop: what happens before an
// iteration, how the patches reach the ranks that own them, and how the
// twelve partial sums are reduced.
type policy interface {
	// begin runs once at the start of iteration iter.
	begin(r *rank, iter int) error
	// exchange has r's patches computed (or adopted) and returns, per
	// source rank, the per-component patches sent to r; a nil source adds
	// nothing.
	exchange(r *rank, iter int) ([][][]sample.Patch, error)
	// reduce returns the sums of partial over the ranks and the voxel count
	// they cover.
	reduce(r *rank, iter int, partial []float64) (total []float64, n float64, err error)
}

// oneRank is SolveLowComm's policy: one rank owns every box, so the
// exchange hands its own patches back and the reduction is the identity.
type oneRank struct{}

func (oneRank) begin(*rank, int) error { return nil }

func (oneRank) exchange(r *rank, _ int) ([][][]sample.Patch, error) {
	if err := r.compute(); err != nil {
		return nil, err
	}
	return r.send, nil
}

func (oneRank) reduce(r *rank, _ int, partial []float64) ([]float64, float64, error) {
	return partial, float64(len(r.s.boxes) * r.s.kd.Len()), nil
}

// run iterates Algorithm 2 under pol from iteration start until the
// residual drops below Tol or MaxIter is reached, then assembles the owned
// strain into the result. Every rank takes the same residual from the
// reduction; rank 0 records it, the outcome and the iteration trace, and
// every rank adds its samples and bytes to the counters.
func (r *rank) run(start int, pol policy) error {
	s := r.s
	s.samples[r.id], s.bytes[r.id] = r.samples, r.bytes
	tr := s.o.Trace
	if r.id != 0 {
		tr = nil
	}
	iterC, iterH := tr.Counter("massif.iterations"), tr.Histogram("massif.iteration_seconds")
	sampC, byteC := s.o.Trace.Counter("massif.samples"), s.o.Trace.Counter("massif.sample_bytes")
	for iter := start; iter < s.o.MaxIter; iter++ {
		span := tr.Start("massif.iteration")
		iterC.Add(1)
		res, err := r.iterate(pol, iter)
		if err != nil {
			span.End()
			return err
		}
		sampC.Add(int64(r.samples))
		byteC.Add(int64(r.bytes))
		done := res < s.o.Tol
		if r.id == 0 {
			s.residuals[iter] = res
			s.out.Iterations, s.out.Converged = iter+1, done
		}
		iterH.Observe(span.End())
		if done {
			break
		}
	}
	for i, b := range r.owned {
		for v, f := range r.eps[i].Comp {
			if err := s.out.Strain.Comp[v].InsertBox(b, f); err != nil {
				return err
			}
		}
	}
	return nil
}

// iterate is one iteration: local convolutions (Algorithm 2 lines 3–5) and
// exchange, accumulation of Δε on the owned boxes (line 6), the twelve
// (Σd, Σd²) sums reduced, then the mean pin, ε ← ε − Δε (line 7) and the
// Voigt-weighted residual, which it returns.
func (r *rank) iterate(pol policy, iter int) (float64, error) {
	if err := pol.begin(r, iter); err != nil {
		return 0, err
	}
	in, err := pol.exchange(r, iter)
	if err != nil {
		return 0, err
	}
	if err := r.accumulate(in); err != nil {
		return 0, err
	}
	partial := make([]float64, 2*grid.NumVoigt)
	for _, d := range r.delta {
		for v, f := range d.Comp {
			for _, x := range f.Data {
				partial[v] += x
				partial[grid.NumVoigt+v] += x * x
			}
		}
	}
	total, n, err := pol.reduce(r, iter, partial)
	if err != nil {
		return 0, err
	}
	// Pin the mean strain to E: the exact Δε̂(0) is zero, compression
	// can drift the mean, so project it out; Σ(d−μ)² = Σd² − n·μ².
	delta2 := 0.0
	var mean [grid.NumVoigt]float64
	for v := range mean {
		mean[v] = total[v] / n
		w := 1.0
		if v >= grid.VYZ {
			w = 2.0
		}
		delta2 += w * (total[grid.NumVoigt+v] - n*mean[v]*mean[v])
	}
	for i, d := range r.delta {
		for v, f := range d.Comp {
			e := r.eps[i].Comp[v].Data
			for j, x := range f.Data {
				e[j] -= x - mean[v]
			}
		}
	}
	return math.Sqrt(math.Max(delta2, 0)) / r.s.normE, nil
}

// compute runs the local convolution of every owned box at its current
// strain — σ = C(x):ε against the global phase map, then the pipeline —
// releasing each pipeline's buffers after its run.
func (r *rank) compute() error {
	kd := r.s.kd
	for i, b := range r.owned {
		for j := range kd.Len() {
			x, y, z := kd.Coords(j)
			sig := r.s.m.StressAt(b.Lo[0]+x, b.Lo[1]+y, b.Lo[2]+z, r.eps[i].AtIndex(j))
			for v, f := range r.sigma.Comp {
				f.Data[j] = sig[v]
			}
		}
		_, err := r.locals[i].RunComponents(r.sigma.Comp[:], r.outs[i])
		r.locals[i].ReleaseBuffers()
		if err != nil {
			return err
		}
	}
	return nil
}

// accumulate sets Δε on the owned boxes to the sum of the received patches,
// each added only to the owned boxes it overlaps, in source then patch
// order.
func (r *rank) accumulate(in [][][]sample.Patch) error {
	s := r.s
	for _, d := range r.delta {
		for _, f := range d.Comp {
			f.Zero()
		}
	}
	for _, comps := range in {
		for v, ps := range comps {
			for _, pt := range ps {
				var err error
				s.forBoxes(pt.Cell.Box, func(i int) {
					if i%s.p == r.id && err == nil {
						err = pt.AddToSubField(r.delta[i/s.p].Comp[v], s.boxes[i].Lo, 1)
					}
				})
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// encode frames send as one message per destination rank for the cluster
// collective.
func (r *rank) encode() [][]float64 {
	msgs := make([][]float64, len(r.send))
	for q, comps := range r.send {
		msgs[q] = sample.EncodeComponentPatches(comps)
	}
	return msgs
}

// decode inverts encode for every received message; a nil one stays nil.
func decode(recv [][]float64) ([][][]sample.Patch, error) {
	in := make([][][]sample.Patch, len(recv))
	for q, msg := range recv {
		if msg == nil {
			continue
		}
		var err error
		if in[q], err = sample.DecodeComponentPatches(msg); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// strain views the owned strain as box → component → voxels, aliasing it.
func (r *rank) strain() [][][]float64 {
	out := make([][][]float64, len(r.eps))
	for i, e := range r.eps {
		out[i] = make([][]float64, grid.NumVoigt)
		for v, f := range e.Comp {
			out[i][v] = f.Data
		}
	}
	return out
}

// load overwrites the owned strain from a strain view; boxes past its end
// keep theirs.
func (r *rank) load(snap [][][]float64) {
	for i := range min(len(snap), len(r.eps)) {
		for v, f := range r.eps[i].Comp {
			copy(f.Data, snap[i][v])
		}
	}
}

// boxTree builds the sampling tree for one sub-domain under opt: rate-1
// everywhere in FullRes validation mode, otherwise the default near/far
// policy at the configured far rate.
func boxTree(dim grid.Dim3, b grid.Box, opt LowCommOptions) (*octree.Tree, error) {
	if opt.FullRes {
		return sample.Uniform{Rate: 1, CellSize: min(8, dim.Nx)}.Tree(dim)
	}
	far := opt.FarRate
	if far == 0 {
		far = 16
	}
	return sample.DefaultPolicy(b, far).Tree(dim)
}

// gammaOp is the Γ̂ contraction per frequency (Algorithm 1 step 3,
// Algorithm 2 line 4) as a pencil callback: it couples the six Voigt
// component lines of one (kx, ky) through green.Gamma, real and imaginary
// parts separately, zeroing ambiguous Nyquist modes (green.Gamma.ApplyAt)
// so the operator stays Hermitian-even and every solver shares one discrete
// fixed point.
func gammaOp(dim grid.Dim3, gamma green.Gamma) conv.Pointwise {
	return func(kx, ky int, spec [][]complex128) {
		for kz := range spec[0] {
			var re, im grid.SymTensor
			for v, line := range spec {
				re[v] = real(line[kz])
				im[v] = imag(line[kz])
			}
			gre := gamma.ApplyAt(dim, kx, ky, kz, re)
			gim := gamma.ApplyAt(dim, kx, ky, kz, im)
			for v, line := range spec {
				line[kz] = complex(gre[v], gim[v])
			}
		}
	}
}

// gammaLocal builds the six-component local pipeline of one sub-domain —
// conv.Local with Γ̂ as its callback — on one rank's shared plans.
func gammaLocal(plans *conv.PlanSet, m *Microstructure, box grid.Box, gamma green.Gamma, opt LowCommOptions) (*conv.Local, error) {
	tree, err := boxTree(m.Dim, box, opt)
	if err != nil {
		return nil, err
	}
	return plans.NewLocalComponents(box, tree, grid.NumVoigt, gammaOp(m.Dim, gamma),
		conv.Config{Workers: opt.Workers, Trace: opt.Trace})
}
