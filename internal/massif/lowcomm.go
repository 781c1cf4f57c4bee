package massif

import (
	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/conv"
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

	// Heal tunes the distributed solve's recovery (checkpoint store,
	// supervision, admission control); nil selects HealOptions' zero
	// value. SolveLowComm ignores it.
	Heal *HealOptions
}

// LowCommStats reports the sample storage of the sub-domains' outputs per
// iteration. It is not fabric traffic: only the part of the outputs that
// leaves its rank crosses the fabric, framed, and cluster.Stats counts that.
type LowCommStats struct {
	SubDomains        int
	SamplesPerIter    int // samples the compressed outputs hold, all six components
	BytesPerIter      int // their storage: samples and octree metadata (Compressed.MemoryBytes)
	DenseBytesPerIter int // the same outputs uncompressed: 8·N³·6 bytes per sub-domain
	Iterations        int
}

// LowCommResult bundles the solution with its sample accounting.
type LowCommResult struct {
	Result
	Comm LowCommStats
	Heal *HealReport // non-nil only for SolveLowCommDistributed
}

// SolveLowComm runs the paper's Algorithm 2: each iteration convolves every
// sub-domain's stress field with Γ̂ locally (slab/pencil pipeline,
// octree-sampled inverse) and exchanges only the compressed samples in a
// single accumulation step, instead of the traditional scheme's all-to-all
// transposes inside every one of the six component FFTs. It is the one
// loop with the sampled operator and the basic rule, on one rank that owns
// every sub-domain, where the exchange and the reduction are identities.
func SolveLowComm(m *Microstructure, E grid.SymTensor, opt LowCommOptions) (*LowCommResult, error) {
	s, err := newLowComm(m, E, opt, 1)
	if err != nil {
		return nil, err
	}
	o, err := s.newSampled(0, nil, nil)
	if err != nil {
		return nil, err
	}
	if err := s.runRank(o, o, 0); err != nil {
		return nil, err
	}
	return s.finish()
}

// lowComm is one Algorithm 2 solve on p ranks: the decomposition and its
// exchange, and per rank the samples and bytes its outputs hold.
type lowComm struct {
	*solve
	opt            LowCommOptions
	p              int
	x              *cluster.Exchange
	samples, bytes []int // by rank
}

func newLowComm(m *Microstructure, E grid.SymTensor, opt LowCommOptions, p int) (*lowComm, error) {
	plans, err := conv.NewPlanSet(m.Dim, opt.Workers)
	if err != nil {
		return nil, err
	}
	x, err := cluster.NewExchange(m.Dim, opt.SubSize, p, grid.NumVoigt, func(_ int, b grid.Box) (*octree.Tree, error) {
		return plans.PolicyTree(boxPolicy(b, opt))
	})
	if err != nil {
		return nil, err
	}
	s, err := newSolve(m, E, opt.Options)
	if err != nil {
		return nil, err
	}
	return &lowComm{solve: s, opt: opt, p: p, x: x, samples: make([]int, p), bytes: make([]int, p)}, nil
}

// finish returns the result with its accounting.
func (s *lowComm) finish() (*LowCommResult, error) {
	res, err := s.solve.finish()
	if err != nil {
		return nil, err
	}
	out := &LowCommResult{Result: *res, Comm: LowCommStats{
		SubDomains:        len(s.x.Boxes),
		DenseBytesPerIter: 8 * s.m.Dim.Len() * grid.NumVoigt * len(s.x.Boxes),
		Iterations:        res.Iterations,
	}}
	for q := range s.samples {
		out.Comm.SamplesPerIter += s.samples[q]
		out.Comm.BytesPerIter += s.bytes[q]
	}
	return out, nil
}

// sampled is Algorithm 2's Γ̂ on one rank's sub-domains (lines 3–6): a
// conv.Local per owned box on one PlanSet, all run on one conv.Runner, one
// σ scratch, and the accumulation of the received groups. The compressed
// outputs are handed back to the runner run after run, and the exchange
// encodes what they hold. As it stands it is SolveLowComm's operator, on one rank that owns
// every box: the exchange hands its own message back and the reduction is
// the identity. healer runs it on the fabric.
type sampled struct {
	one
	s      *lowComm
	r      *rank
	plans  *conv.PlanSet
	run    *conv.Runner
	owned  []int
	locals []*conv.Local
	outs   [][]*sample.Compressed
	sigma  *grid.TensorField

	samples, bytes int // per iteration, over the owned boxes
}

// newSampled builds rank id's operator and rank on plans and run (fresh
// ones when plans is nil).
func (s *lowComm) newSampled(id int, plans *conv.PlanSet, run *conv.Runner) (*sampled, error) {
	if plans == nil {
		var err error
		if plans, err = conv.NewPlanSet(s.m.Dim, s.opt.Workers); err != nil {
			return nil, err
		}
		run = plans.NewRunner()
	}
	o := &sampled{s: s, plans: plans, run: run, owned: s.x.Owned(id), sigma: grid.NewTensorField(grid.Cube(s.opt.SubSize))}
	var boxes []grid.Box
	for _, j := range o.owned {
		boxes = append(boxes, s.x.Boxes[j])
		local, err := gammaLocal(plans, s.m, s.x.Boxes[j], s.m.gamma(), s.opt)
		if err != nil {
			return nil, err
		}
		outs := make([]*sample.Compressed, grid.NumVoigt)
		for v := range outs {
			outs[v] = sample.NewCompressed(local.Tree())
			o.samples += len(outs[v].Samples)
			o.bytes += outs[v].MemoryBytes()
		}
		o.locals = append(o.locals, local)
		o.outs = append(o.outs, outs)
	}
	o.r = newRank(id, s.m, boxes, s.E)
	return o, nil
}

// runRank records o's samples and bytes as its rank's and runs the one loop
// on its rank from iteration start, under op and the basic rule.
func (s *lowComm) runRank(o *sampled, op operator, start int) error {
	s.samples[o.r.id], s.bytes[o.r.id] = o.samples, o.bytes
	return s.run(o.r, op, basic{s.solve, o.r}, start)
}

// compute runs the local convolution of every owned box at in on the
// rank's runner.
func (o *sampled) compute(in func(b, i, g int) grid.SymTensor) error {
	for i, local := range o.locals {
		lo, d := o.r.boxes[i].Lo, o.s.m.Dim
		for j := range o.sigma.Dim.Len() {
			x, y, z := o.sigma.Dim.Coords(j)
			o.sigma.SetIndex(j, in(i, j, d.Index(lo[0]+x, lo[1]+y, lo[2]+z)))
		}
		if _, err := o.run.Run(local, o.sigma.Comp[:], o.outs[i]); err != nil {
			return err
		}
	}
	return nil
}

// accumulate sets out to the sum of the received groups, and counts the
// iteration's samples.
func (o *sampled) accumulate(in []cluster.Group, out []*grid.TensorField) error {
	for _, d := range out {
		for _, f := range d.Comp {
			f.Zero()
		}
	}
	x := o.s.x
	if err := x.Accumulate(o.r.id, in, func(j, v int) (*grid.Field, grid.Point) {
		return out[j/o.s.p].Comp[v], x.Boxes[j].Lo
	}); err != nil {
		return err
	}
	o.s.o.Trace.Counter("massif.samples").Add(int64(o.samples))
	o.s.o.Trace.Counter("massif.sample_bytes").Add(int64(o.bytes))
	return nil
}

func (o *sampled) apply(_ int, in func(b, i, g int) grid.SymTensor, out []*grid.TensorField) error {
	if err := o.compute(in); err != nil {
		return err
	}
	groups, err := o.s.x.Decode(0, o.s.x.Encode(o.owned, o.outs))
	if err != nil {
		return err
	}
	return o.accumulate(groups, out)
}

// boxPolicy is the sampling policy of sub-domain box under opt: rate 1
// everywhere in FullRes validation mode, otherwise the paper's near/far
// policy at the configured far rate (default 16).
func boxPolicy(box grid.Box, opt LowCommOptions) sample.Policy {
	if opt.FullRes {
		return sample.Policy{Sub: box, NearRate: 1, MidRate: 1, FarRate: 1}
	}
	far := opt.FarRate
	if far == 0 {
		far = 16
	}
	return sample.DefaultPolicy(box, far)
}

// gammaOp is the Γ̂ contraction per frequency (Algorithm 1 step 3,
// Algorithm 2 line 4) as a tile callback: walking the tile's rows, it
// couples the six Voigt components of each pencil (kx0+j, ky) at kz
// through green.Gamma, real and imaginary parts separately, zeroing
// ambiguous Nyquist modes (green.Gamma.ApplyAt) so the operator stays
// Hermitian-even and every solver shares one discrete fixed point. Padding
// pencils kx ≥ N are left as they are.
func gammaOp(dim grid.Dim3, gamma green.Gamma) conv.Pointwise {
	return func(kx0, ky int, tile [][]complex128) {
		pencils := min(fft.Tile, dim.Nx-kx0)
		for kz := range dim.Nz {
			for j := range pencils {
				i := fft.Tile*kz + j
				var re, im grid.SymTensor
				for v, t := range tile {
					re[v] = real(t[i])
					im[v] = imag(t[i])
				}
				gre := gamma.ApplyAt(dim, kx0+j, ky, kz, re)
				gim := gamma.ApplyAt(dim, kx0+j, ky, kz, im)
				for v, t := range tile {
					t[i] = complex(gre[v], gim[v])
				}
			}
		}
	}
}

// gammaLocal builds the six-component local pipeline of one sub-domain —
// conv.Local with Γ̂ as its callback — placed by its policy on plans.
func gammaLocal(plans *conv.PlanSet, m *Microstructure, box grid.Box, gamma green.Gamma, opt LowCommOptions) (*conv.Local, error) {
	return plans.NewPolicyLocal(boxPolicy(box, opt), grid.NumVoigt, gammaOp(m.Dim, gamma),
		conv.Config{Workers: opt.Workers, Trace: opt.Trace})
}
