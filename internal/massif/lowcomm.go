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
	plans, err := conv.NewPlanSet(m.Dim, opt.Workers)
	if err != nil {
		return nil, err
	}
	locals := make([]*conv.Local, len(boxes))
	for i, b := range boxes {
		locals[i], err = gammaLocal(plans, m, b, gamma, opt)
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
			results := make([]*sample.Compressed, grid.NumVoigt)
			st, err := locals[i].RunComponents(sub, results)
			if err != nil {
				iterSpan.End()
				return nil, err
			}
			iterSamples += st.SampleCount
			iterBytes += st.SampleBytes
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

// gammaOp is the Γ̂ contraction per frequency (Algorithm 2 line 4) as the
// pipeline's pointwise callback: it couples the six Voigt component lines
// of one (kx, ky) pencil through green.Gamma, real and imaginary parts
// separately, with the same Nyquist-zeroing convention as the reference
// solver (green.Gamma.ApplyAt).
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
// conv.Local with Γ̂ as its callback — on the solve's (one rank's, in the
// distributed solves) shared plans.
func gammaLocal(plans *conv.PlanSet, m *Microstructure, box grid.Box, gamma green.Gamma, opt LowCommOptions) (*conv.Local, error) {
	tree, err := boxTree(m, box, opt)
	if err != nil {
		return nil, err
	}
	return plans.NewLocalComponents(box, tree, grid.NumVoigt, gammaOp(m.Dim, gamma),
		conv.Config{Workers: opt.Workers, BatchB: opt.BatchB, Trace: opt.Trace})
}
