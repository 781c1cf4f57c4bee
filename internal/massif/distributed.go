package massif

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/sample"
)

// SolveLowCommDistributed runs Algorithm 2 on a simulated cluster — the
// paper's Fig. 2 deployment: every worker owns a round-robin share of the
// k³ sub-domains and holds only those sub-domains' strain and stress
// fields, never the global grid. Each iteration performs the local
// convolutions (zero communication), ONE all-to-all of octree-compressed
// patches for the accumulation step, and one small all-reduce for the
// global residual and mean-strain pinning. The result is bit-compatible
// with the serial SolveLowComm.
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
	o := opt.Options.withDefaults()
	boxes, err := grid.Decompose(m.Dim, opt.SubSize)
	if err != nil {
		return nil, err
	}
	parts, err := grid.Partition(boxes, c.P)
	if err != nil {
		return nil, err
	}
	lambda0, mu0 := m.ReferenceMedium()
	gamma := green.Gamma{Lambda0: lambda0, Mu0: mu0}
	normE := E.Norm() * math.Sqrt(float64(m.Dim.Len()))
	if normE == 0 {
		return nil, fmt.Errorf("massif: applied strain must be nonzero")
	}

	// Shared result written by disjoint regions at the end (assembly is
	// not counted as solver communication, like MPI-IO output).
	out := &LowCommResult{}
	out.Comm.SubDomains = len(boxes)
	strain := grid.NewTensorField(m.Dim)
	stress := grid.NewTensorField(m.Dim)
	out.Result.Strain = strain
	out.Result.Stress = stress
	iterDone := make([]int, c.P)
	converged := make([]bool, c.P)
	bytesPerIter := make([]int, c.P)
	samplesPerIter := make([]int, c.P)
	restartsPer := make([]int, c.P)
	kd := grid.Cube(opt.SubSize)
	ckpt := newStrainCheckpoint()
	deadAtStart := make([]bool, c.P)
	for _, q := range c.DeadWorkers() {
		deadAtStart[q] = true
	}

	workerFn := func(w *cluster.Worker) error {
		owned := parts[w.ID]
		plans, err := conv.NewPlanSet(m.Dim, opt.Workers)
		if err != nil {
			return err
		}
		// Per-box solver state.
		type boxState struct {
			box   grid.Box
			eps   *grid.TensorField // k³ local strain
			local *conv.Local
		}
		states := make([]*boxState, len(owned))
		for i, b := range owned {
			local, err := gammaLocal(plans, m, b, gamma, opt)
			if err != nil {
				return err
			}
			eps := grid.NewTensorField(kd)
			eps.Fill(E)
			states[i] = &boxState{box: b, eps: eps, local: local}
		}
		sigma := make([]*grid.Field, grid.NumVoigt)
		for v := range sigma {
			sigma[v] = grid.NewField(kd)
		}
		deltas := make([]*grid.TensorField, len(owned))
		for i := range deltas {
			deltas[i] = grid.NewTensorField(kd)
		}

		// Fault-tolerance state: the lockstep-consistent dead mask (agreed
		// through the all-reduce broadcast each iteration, so every
		// survivor takes the same restart decisions) plus deep-copy
		// snapshot/restore of the owned strain for checkpoint/restart.
		knownDead := make([]bool, c.P)
		copy(knownDead, deadAtStart)
		// frozen[q] is the last payload delivered by peer q. When q dies,
		// its contribution is not omitted — omitting a box's stress
		// convolution perturbs the fixed-point operator by O(‖E‖) every
		// iteration and destabilizes the solve — but frozen: survivors keep
		// accumulating q's last delivered patches, the constant source term
		// matching the frozen strain its sub-domains are assembled with.
		frozen := make([][]float64, c.P)
		snapshot := func() [][][]float64 {
			snap := make([][][]float64, len(states))
			for i, st := range states {
				snap[i] = make([][]float64, grid.NumVoigt)
				for v := 0; v < grid.NumVoigt; v++ {
					cp := make([]float64, len(st.eps.Comp[v].Data))
					copy(cp, st.eps.Comp[v].Data)
					snap[i][v] = cp
				}
			}
			return snap
		}
		restore := func() error {
			snap, _, ok := ckpt.load(w.ID)
			if !ok {
				return fmt.Errorf("massif: worker %d has no checkpoint to restart from", w.ID)
			}
			for i, st := range states {
				for v := 0; v < grid.NumVoigt; v++ {
					copy(st.eps.Comp[v].Data, snap[i][v])
				}
			}
			return nil
		}
		liveVoxels := func() float64 {
			nb := 0
			for q := 0; q < c.P; q++ {
				if !knownDead[q] {
					nb += len(parts[q])
				}
			}
			return float64(nb * kd.Len())
		}

		for iter := 0; iter < o.MaxIter; iter++ {
			ckpt.save(w.ID, iter, snapshot())
			var total []float64
		redo:
			for {
				// Local stress and local convolution for every owned box.
				nsamp, nbytes := 0, 0
				results := make([][]*sample.Compressed, 0, len(states))
				for _, st := range states {
					fillSigma(m, st.box, st.eps, kd, sigma)
					comps := make([]*sample.Compressed, grid.NumVoigt)
					cs, err := st.local.RunComponents(sigma, comps)
					if err != nil {
						return err
					}
					nsamp += cs.SampleCount
					nbytes += cs.SampleBytes
					results = append(results, comps)
				}
				bytesPerIter[w.ID] = nbytes
				samplesPerIter[w.ID] = nsamp

				// One sparse all-to-all: ship to each peer only the patches
				// overlapping that peer's sub-domains.
				msgs := encodePeerMsgs(results, parts, m.Dim.Bounds(), c.P)
				recv, _, err := w.AllToAllFT(msgs)
				if err != nil {
					return err // this worker's own injected crash
				}
				// Accumulate Δε on owned boxes (Algorithm 2 line 6). A dead
				// peer's slot is nil: substitute its frozen contribution.
				// (After a retry-exhaustion death — as opposed to an injected
				// crash, which dies before sending — survivors may have
				// frozen the peer one exchange apart; the checkpoint redo
				// keeps the iteration itself consistent, and the residual
				// absorbs the one-iteration-old source.)
				for i := range deltas {
					for v := range deltas[i].Comp {
						deltas[i].Comp[v].Zero()
					}
				}
				for q := 0; q < c.P; q++ {
					buf := recv[q]
					if buf == nil {
						buf = frozen[q]
						if buf == nil {
							continue
						}
					} else {
						frozen[q] = buf
					}
					perComp, err := sample.DecodeComponentPatches(buf)
					if err != nil {
						return err
					}
					for v, ps := range perComp {
						for _, p := range ps {
							for i, st := range states {
								if err := p.AddToSubField(deltas[i].Comp[v], st.box.Lo, 1); err != nil {
									return err
								}
							}
						}
					}
				}

				// Global mean pinning + residual in one 12-value all-reduce,
				// which doubles as the failure-agreement round: the root's
				// broadcast hands every survivor the same dead mask.
				partial := make([]float64, 2*grid.NumVoigt)
				for i := range deltas {
					for v := 0; v < grid.NumVoigt; v++ {
						for _, d := range deltas[i].Comp[v].Data {
							partial[v] += d
							partial[grid.NumVoigt+v] += d * d
						}
					}
				}
				tot, mask, err := w.AllReduceSumFT(partial)
				if err != nil {
					return err
				}
				grew := false
				for i := range mask {
					if mask[i] && !knownDead[i] {
						knownDead[i] = true
						grew = true
					}
				}
				if grew {
					// A peer died inside this iteration, so survivors may
					// hold inconsistent accumulations (some received the
					// dead rank's patches, others declared it dead mid
					// exchange). Restore the iteration-start strain from the
					// checkpoint and redo the iteration with the dead set
					// excluded everywhere.
					restartsPer[w.ID]++
					if restartsPer[w.ID] > c.P {
						return fmt.Errorf("massif: worker %d exceeded restart limit at iteration %d", w.ID, iter)
					}
					if err := restore(); err != nil {
						return err
					}
					continue redo
				}
				total = tot
				break redo
			}
			// Mean and residual over live voxels: dead sub-domains are
			// frozen, so pinning the live mean keeps the survivors' average
			// strain at E.
			nTot := liveVoxels()
			delta2 := 0.0
			var mean [grid.NumVoigt]float64
			for v := 0; v < grid.NumVoigt; v++ {
				mean[v] = total[v] / nTot
				wgt := 1.0
				if v >= grid.VYZ {
					wgt = 2.0
				}
				// Σ(d−μ)² = Σd² − n·μ².
				delta2 += wgt * (total[grid.NumVoigt+v] - nTot*mean[v]*mean[v])
			}
			// ε_d ← ε_d − (Δε − mean) (line 7).
			for i, st := range states {
				for v := 0; v < grid.NumVoigt; v++ {
					ed := st.eps.Comp[v].Data
					for j, d := range deltas[i].Comp[v].Data {
						ed[j] -= d - mean[v]
					}
				}
			}
			r := math.Sqrt(math.Max(delta2, 0)) / normE
			iterDone[w.ID] = iter + 1
			if w.ID == 0 {
				out.Residuals = append(out.Residuals, r)
			}
			if r < o.Tol {
				converged[w.ID] = true
				break
			}
		}

		// Assemble the distributed strain into the shared result
		// (disjoint regions per worker).
		for _, st := range states {
			for v := 0; v < grid.NumVoigt; v++ {
				sub := &grid.Field{Dim: kd, Data: st.eps.Comp[v].Data}
				if err := strain.Comp[v].InsertBox(st.box, sub); err != nil {
					return err
				}
			}
		}
		return nil
	}
	errs := c.RunAll(workerFn)
	deadRanks := map[int]bool{}
	var lastDeadErr error
	for rank, e := range errs {
		if e == nil {
			continue
		}
		var ce *cluster.CrashError
		var fe *cluster.FaultError
		crashed := errors.As(e, &ce)
		if crashed || errors.As(e, &fe) {
			deadRanks[rank] = true
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
		deadRanks[q] = true
	}

	// Degraded assembly: a dead rank never reached the assembly step, so
	// its sub-domains enter the result frozen at its last checkpointed
	// strain (or the applied strain E if it died before checkpointing).
	for q := range deadRanks {
		snap, _, ok := ckpt.load(q)
		sub := grid.NewField(kd)
		for i, b := range parts[q] {
			for v := 0; v < grid.NumVoigt; v++ {
				if ok {
					copy(sub.Data, snap[i][v])
				} else {
					for j := range sub.Data {
						sub.Data[j] = E[v]
					}
				}
				if err := strain.Comp[v].InsertBox(b, sub); err != nil {
					return nil, err
				}
			}
		}
	}

	live := -1
	for q := 0; q < c.P; q++ {
		if !deadRanks[q] {
			live = q
			break
		}
	}
	if live < 0 {
		// Every rank died: there is no surviving state worth assembling
		// into a degraded result. Surface the typed sentinel (wrapping the
		// last worker failure) so callers can distinguish "total loss" from
		// "degraded but usable".
		return nil, &AllDeadError{Workers: c.P, Last: lastDeadErr}
	}
	out.Iterations = iterDone[live]
	out.Converged = converged[live]
	out.Comm.Iterations = out.Iterations
	for wID := range bytesPerIter {
		out.Comm.BytesPerIter += bytesPerIter[wID]
		out.Comm.SamplesPerIter += samplesPerIter[wID]
	}
	out.Comm.DenseBytesPerIter = 8 * m.Dim.Len() * grid.NumVoigt * len(boxes)
	if len(deadRanks) > 0 {
		out.Fault.Degraded = true
		for q := range deadRanks {
			out.Fault.Dead = append(out.Fault.Dead, q)
		}
		sort.Ints(out.Fault.Dead)
	}
	for _, rp := range restartsPer {
		if rp > out.Fault.Restarts {
			out.Fault.Restarts = rp
		}
	}
	if _, err := m.StressField(strain, stress); err != nil {
		return nil, err
	}
	return out, nil
}
