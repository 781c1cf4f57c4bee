package massif

import (
	"errors"
	"fmt"
	"slices"

	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/sample"
)

// SolveLowCommDistributed runs Algorithm 2 on a simulated cluster — the
// paper's Fig. 2 deployment: every worker owns a round-robin share of the
// k³ sub-domains and holds only those sub-domains' strain and stress
// fields, never the global grid. Each iteration performs the local
// convolutions (zero communication), ONE all-to-all of octree-compressed
// patches for the accumulation step, and one small all-reduce for the
// global residual and mean-strain pinning. Every rank runs SolveLowComm's
// loop on its own boxes, so on one worker the two solves agree bit for bit;
// on more, the mean and residual sums are added in a different order and
// the results agree to round-off.
//
// On a faulty fabric the solve degrades instead of aborting: transient
// faults heal in the transport layer; a worker declared dead mid-solve
// triggers a checkpoint restart of the affected iteration on the
// survivors (the all-reduce broadcast doubles as the failure-agreement
// round, so every survivor redoes the same iteration with the same dead
// set), the fixed point continues over the live sub-domains with the mean
// pinned over live voxels, and the dead rank's sub-domains enter the final
// assembly frozen at their last checkpointed strain. The outcome is
// recorded in the result's Fault report. A dead root (rank 0) is not
// survivable — the reduction tree has no other trunk.
func SolveLowCommDistributed(c *cluster.Cluster, m *Microstructure, E grid.SymTensor, opt LowCommOptions) (*LowCommResult, error) {
	if opt.Heal != nil {
		return solveSelfHealing(c, m, E, opt)
	}
	s, err := newLowComm(m, E, opt, c.P)
	if err != nil {
		return nil, err
	}
	ckpt := make([][][][]float64, c.P)
	deadAtStart := make([]bool, c.P)
	for _, q := range c.DeadWorkers() {
		deadAtStart[q] = true
	}
	restarts := make([]int, c.P)
	errs := c.RunAll(func(w *cluster.Worker) error {
		r, err := s.newRank(w.ID, nil)
		if err != nil {
			return err
		}
		return r.run(0, &degrade{
			w: w, ckpt: ckpt, restarts: restarts,
			dead: append([]bool(nil), deadAtStart...), frozen: make([][]float64, c.P),
		})
	})
	isDead := make([]bool, c.P)
	var lastDeadErr error
	for rank, e := range errs {
		if e == nil {
			continue
		}
		var ce *cluster.CrashError
		var fe *cluster.FaultError
		crashed := errors.As(e, &ce)
		if crashed || errors.As(e, &fe) {
			isDead[rank] = true
			// Keep a rank's own crash over a peer's report of it: which
			// of the two a later rank returns depends on who got there
			// first.
			if crashed || lastDeadErr == nil {
				lastDeadErr = e
			}
			continue
		}
		return nil, e
	}
	for _, q := range c.DeadWorkers() {
		isDead[q] = true
	}
	var dead []int
	for q, d := range isDead {
		if d {
			dead = append(dead, q)
		}
	}

	// Degraded assembly: a dead rank never reached the assembly step, so
	// its sub-domains enter the result frozen at its last checkpointed
	// strain (or the applied strain E if it died before checkpointing).
	sub := grid.NewField(s.kd)
	for _, q := range dead {
		for i, b := range s.parts[q] {
			for v, f := range s.out.Strain.Comp {
				sub.Fill(E[v])
				if ckpt[q] != nil {
					copy(sub.Data, ckpt[q][i][v])
				}
				if err := f.InsertBox(b, sub); err != nil {
					return nil, err
				}
			}
		}
	}

	if len(dead) == c.P {
		// Every rank died: there is no surviving state worth assembling
		// into a degraded result. Surface the typed sentinel (wrapping the
		// last worker failure) so callers can distinguish "total loss" from
		// "degraded but usable".
		return nil, &AllDeadError{Workers: c.P, Last: lastDeadErr}
	}
	out, err := s.finish()
	if err != nil {
		return nil, err
	}
	out.Fault = LowCommFaultReport{Dead: dead, Restarts: slices.Max(restarts), Degraded: len(dead) > 0}
	return out, nil
}

// degrade is the degrade-on-fault policy of one rank: an in-memory strain
// checkpoint at every iteration start, the dead mask agreed through the
// all-reduce, and frozen contributions for dead peers.
type degrade struct {
	w *cluster.Worker
	// ckpt[q] is a deep copy of rank q's strain at its last iteration
	// start (boxes × Voigt components × k³ values — far smaller than the
	// global grid). Survivors restore from it to redo an iteration whose
	// sparse exchange a peer died inside of, and a dead rank's sub-domains
	// are assembled from it — frozen at the crash iteration — instead of
	// being lost.
	ckpt     [][][][]float64
	restarts []int // by rank: iterations redone
	dead     []bool
	// frozen[q] is the last payload delivered by peer q. When q dies, its
	// contribution is not omitted — omitting a box's stress convolution
	// perturbs the fixed-point operator by O(‖E‖) every iteration and
	// destabilizes the solve — but frozen: survivors keep accumulating q's
	// last delivered patches, the constant source term matching the frozen
	// strain its sub-domains are assembled with.
	frozen [][]float64
}

func (d *degrade) begin(r *rank, _ int) error {
	snap := r.strain()
	for _, box := range snap {
		for v, data := range box {
			box[v] = append([]float64(nil), data...)
		}
	}
	d.ckpt[r.id] = snap
	return nil
}

// exchange is the one sparse all-to-all. A dead peer's slot is nil: its
// frozen contribution stands in. (After a retry-exhaustion death — as
// opposed to an injected crash, which dies before sending — survivors may
// have frozen the peer one exchange apart; the checkpoint redo keeps the
// iteration itself consistent, and the residual absorbs the
// one-iteration-old source.)
func (d *degrade) exchange(r *rank, _ int) ([][][]sample.Patch, error) {
	if err := r.compute(); err != nil {
		return nil, err
	}
	recv, _, err := d.w.AllToAllFT(r.encode())
	if err != nil {
		return nil, err // this worker's own injected crash
	}
	for q, msg := range recv {
		if msg == nil {
			recv[q] = d.frozen[q]
		} else {
			d.frozen[q] = msg
		}
	}
	return decode(recv)
}

// reduce is the 12-value all-reduce, which doubles as the failure-agreement
// round: the root's broadcast hands every survivor the same dead mask. A
// peer that died inside the iteration may have left survivors with
// inconsistent accumulations (some received its patches, others declared it
// dead mid exchange), so a grown mask restores the iteration-start strain
// and redoes the iteration with the dead set excluded everywhere. The mean
// and residual are over live voxels: dead sub-domains are frozen, so
// pinning the live mean keeps the survivors' average strain at E.
func (d *degrade) reduce(r *rank, iter int, partial []float64) ([]float64, float64, bool, error) {
	total, mask, err := d.w.AllReduceSumFT(partial)
	if err != nil {
		return nil, 0, false, err
	}
	grew := false
	for q, dead := range mask {
		if dead && !d.dead[q] {
			d.dead[q], grew = true, true
		}
	}
	if grew {
		if d.restarts[r.id]++; d.restarts[r.id] > len(mask) {
			return nil, 0, false, fmt.Errorf("massif: worker %d exceeded restart limit at iteration %d", r.id, iter)
		}
		r.load(d.ckpt[r.id])
		return nil, 0, true, nil
	}
	boxes := 0
	for q, dead := range d.dead {
		if !dead {
			boxes += len(r.s.parts[q])
		}
	}
	return total, float64(boxes * r.s.kd.Len()), false, nil
}
