package massif

import (
	"fmt"
	"math"

	"lowcomm3d/internal/grid"
)

// Every solver is one loop, run by every rank of the solve (solve.run). An
// operator applies Γ̂∗ on the rank's voxels — dense FFTs, slab transposes,
// or local convolutions and one sampled exchange — and sums over the
// ranks; an update rule — the basic scheme or CG — turns what it returns
// into the next iterate. The loop owns the rest.
type operator interface {
	// apply sets out, per box, to Γ̂ ∗ in on the rank's boxes, where
	// in(b, i, g) is the field at voxel i of box b, voxel g of the grid;
	// iter is the iteration it serves.
	apply(iter int, in func(b, i, g int) grid.SymTensor, out []*grid.TensorField) error
	// sum returns x summed over the ranks.
	sum(iter int, x []float64) ([]float64, error)
}

// one is the sum of an operator that runs on one rank: the identity.
type one struct{}

func (one) sum(_ int, x []float64) ([]float64, error) { return x, nil }

// rule is an update rule on one rank's iterate.
type rule interface {
	// input is the field Γ̂ is applied to this iteration, at voxel i of box
	// b, voxel g of the grid.
	input(b, i, g int) grid.SymTensor
	// partial returns the rank's share of the sums the iteration reduces,
	// given out = Γ̂ ∗ input on its boxes.
	partial(out []*grid.TensorField) []float64
	// update advances the iterate from out and the reduced sums and returns
	// the iteration's residual.
	update(iter int, out []*grid.TensorField, total []float64) (float64, error)
}

// rank is one rank's share of a solve: the boxes it owns (the whole grid, a
// z slab or sub-domains) and per box the strain, at E to start, and Δε.
type rank struct {
	id    int
	m     *Microstructure
	boxes []grid.Box
	eps   []*grid.TensorField
	delta []*grid.TensorField
}

func newRank(id int, m *Microstructure, boxes []grid.Box, E grid.SymTensor) *rank {
	r := &rank{id: id, m: m, boxes: boxes}
	for _, b := range boxes {
		s := b.Size()
		d := grid.Dim3{Nx: s[0], Ny: s[1], Nz: s[2]}
		eps := grid.NewTensorField(d)
		eps.Fill(E)
		r.eps = append(r.eps, eps)
		r.delta = append(r.delta, grid.NewTensorField(d))
	}
	return r
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

// load overwrites the owned strain from a strain view, as far as it goes.
func (r *rank) load(snap [][][]float64) {
	for i := range min(len(snap), len(r.eps)) {
		for v, f := range r.eps[i].Comp {
			copy(f.Data, snap[i][v])
		}
	}
}

// solve is what the ranks of one solve share. Rank 0 alone records the
// iteration outcome; every rank writes only its own boxes of the strain.
type solve struct {
	m         *Microstructure
	E         grid.SymTensor
	o         Options // with defaults
	normE     float64
	head      []float64 // the residual before the first iteration, if the rule has one
	residuals []float64
	res       *Result
}

func newSolve(m *Microstructure, E grid.SymTensor, opt Options) (*solve, error) {
	// Residuals are ‖Δε‖ relative to ‖ε⁰‖ = ‖E‖·√N³, the norm of the
	// uniform initial strain field (the standard relative criterion).
	normE := E.Norm() * math.Sqrt(float64(m.Dim.Len()))
	if normE == 0 {
		return nil, fmt.Errorf("massif: applied strain must be nonzero")
	}
	o := opt.withDefaults()
	return &solve{
		m: m, E: E, o: o, normE: normE,
		residuals: make([]float64, o.MaxIter),
		res:       &Result{Strain: grid.NewTensorField(m.Dim), Stress: grid.NewTensorField(m.Dim)},
	}, nil
}

// run is the one iteration loop on rank r, from iteration start until the
// residual (or the head) drops below Tol or MaxIter is reached; then it
// assembles r's strain into the result. Rank 0 records the outcome from
// start on, which a resumed run rewrites, and the trace: per iteration one
// "massif.iteration" span and "massif.iteration_seconds" sample, and the
// "massif.iterations" counter.
func (s *solve) run(r *rank, op operator, rl rule, start int) error {
	done := len(s.head) > 0 && s.head[0] < s.o.Tol
	tr := s.o.Trace
	if r.id != 0 {
		tr = nil
	} else {
		s.res.Iterations, s.res.Converged = start, done
	}
	iterC, iterH := tr.Counter("massif.iterations"), tr.Histogram("massif.iteration_seconds")
	for iter := start; iter < s.o.MaxIter && !done; iter++ {
		span := tr.Start("massif.iteration")
		iterC.Add(1)
		res, err := s.iterate(r, op, rl, iter)
		took := span.End()
		if err != nil {
			return err
		}
		done = res < s.o.Tol
		if r.id == 0 {
			s.residuals[iter] = res
			s.res.Iterations, s.res.Converged = iter+1, done
		}
		iterH.Observe(took)
	}
	for i, b := range r.boxes {
		for v, f := range r.eps[i].Comp {
			if err := s.res.Strain.Comp[v].InsertBox(b, f); err != nil {
				return err
			}
		}
	}
	return nil
}

// iterate applies Γ̂ to the rule's input, reduces its partial sums, updates.
func (s *solve) iterate(r *rank, op operator, rl rule, iter int) (float64, error) {
	if err := op.apply(iter, rl.input, r.delta); err != nil {
		return 0, err
	}
	total, err := op.sum(iter, rl.partial(r.delta))
	if err != nil {
		return 0, err
	}
	return rl.update(iter, r.delta, total)
}

// finish computes the stress of the assembled strain.
func (s *solve) finish() (*Result, error) {
	s.res.Residuals = append(s.head, s.residuals[:s.res.Iterations]...)
	if _, err := s.m.StressField(s.res.Strain, s.res.Stress); err != nil {
		return nil, err
	}
	return s.res, nil
}

// basic is the Moulinec–Suquet basic scheme: Δε = Γ̂ ∗ (C:ε), then
// ε ← ε − (Δε − ⟨Δε⟩). The exact Δε̂(0) is zero; round-off and sample
// compression drift the mean, so the twelve sums (Σd, Σd²) per component
// are reduced, the mean is projected out, and the residual is the
// Voigt-weighted ‖Δε − ⟨Δε⟩‖ over ‖E‖·√N³, from Σ(d−μ)² = Σd² − n·μ².
type basic struct {
	s *solve
	r *rank
}

func (b basic) input(box, i, g int) grid.SymTensor {
	return b.r.m.StressIndex(g, b.r.eps[box].AtIndex(i))
}

func (basic) partial(out []*grid.TensorField) []float64 {
	p := make([]float64, 2*grid.NumVoigt)
	for _, d := range out {
		for v, f := range d.Comp {
			s, s2 := p[v], p[grid.NumVoigt+v]
			for _, x := range f.Data {
				s += x
				s2 += x * x
			}
			p[v], p[grid.NumVoigt+v] = s, s2
		}
	}
	return p
}

func (b basic) update(_ int, out []*grid.TensorField, total []float64) (float64, error) {
	n := float64(b.s.m.Dim.Len())
	delta2 := 0.0
	var mean [grid.NumVoigt]float64
	for v := range mean {
		mean[v] = total[v] / n
		delta2 += voigtWeight[v] * (total[grid.NumVoigt+v] - n*mean[v]*mean[v])
	}
	for i, d := range out {
		for v, f := range d.Comp {
			e, mu := b.r.eps[i].Comp[v].Data, mean[v]
			for j, x := range f.Data {
				e[j] -= x - mu
			}
		}
	}
	return math.Sqrt(math.Max(delta2, 0)) / b.s.normE, nil
}

// voigtWeight is each Voigt component's weight in a full-tensor norm: the
// shear components count twice.
var voigtWeight = [grid.NumVoigt]float64{1, 1, 1, 2, 2, 2}
