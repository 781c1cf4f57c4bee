package massif

import (
	"errors"
	"fmt"
	"time"

	"lowcomm3d/internal/ckpt"
	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/sample"
	"lowcomm3d/internal/supervise"
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
// On a faulty fabric the solve heals: transient faults heal in the
// transport layer; every rank checkpoints its strain at each iteration
// start (opt.Heal.Store, or a store held in memory for this solve); any
// worker death aborts the generation at the iteration barrier, the cluster
// epoch is reset, and a full replacement generation — the dead ranks
// respawned, the root included — resumes every rank from its checkpoint of
// one iteration, the newest all ranks have, so a healed solve returns the
// healthy solve's bits. A supervisor also re-executes
// stragglers' iterations on idle peers. After 2P+2 aborted generations the
// solve gives up with an error wrapping the last worker crash
// (errors.As reaches *cluster.CrashError). Result.Heal reports what the
// recovery did.
func SolveLowCommDistributed(c *cluster.Cluster, m *Microstructure, E grid.SymTensor, opt LowCommOptions) (*LowCommResult, error) {
	var h HealOptions
	if opt.Heal != nil {
		h = *opt.Heal
	}
	if h.Store == nil {
		h.Store = ckpt.NewMemStore(opt.Trace)
	}
	// The store's byte counter is cumulative across every solve sharing
	// its trace; report only this solve's writes.
	ckptBase := h.Store.BytesWritten()

	// Admission control: charge the fleet before any pipeline exists,
	// refining k until the plan fits (Table 4 as runtime behavior).
	subSize, admissions, refinements, err := admitWorkers(m.Dim, c.P, opt, &h)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, a := range admissions {
			a.Free()
		}
	}()
	if refinements > 0 {
		opt.Trace.Counter("heal.k_refinements").Add(int64(refinements))
	}
	opt.SubSize = subSize
	s, err := newLowComm(m, E, opt, c.P)
	if err != nil {
		return nil, err
	}

	h.Supervise.Flight = h.Flight
	h.Store.SetFlight(h.Flight)
	sup := supervise.New(c.P, h.Supervise)
	sup.Start(c.DeclareDead)
	defer sup.Stop()
	genC := opt.Trace.Counter("heal.generations")

	maxGen := 2*c.P + 2
	startIter := 0
	respawned := make([]bool, c.P)
	gen := 0
	for {
		gen++
		genC.Add(1)
		errs := c.RunAll(func(w *cluster.Worker) error {
			// Respawned replacements and surviving ranks alike resume from
			// their iteration-start strain of startIter; iteration 0's is E,
			// which newRank sets.
			r, err := s.newRank(w.ID, nil)
			if err != nil {
				return err
			}
			if startIter > 0 {
				snap, err := h.Store.LoadStrainAt(w.ID, startIter)
				if err != nil {
					return err
				}
				if snap == nil {
					return fmt.Errorf("massif: rank %d has no checkpoint of iteration %d", w.ID, startIter)
				}
				r.load(snap.Strain)
			}
			return r.run(startIter, &healer{w: w, store: h.Store, chaos: h.Chaos, sup: sup, peers: map[int]*rank{}})
		})
		// Only ranks whose own run ended in a transport crash count as
		// respawned: survivors parked at the barrier (errGenAbort) or caught
		// in a peer's death (FaultError) restart with the generation anyway,
		// and monitor kills are accounted by the heartbeat-deaths counter.
		var cause error // the last rank's own crash, else the first abort
		for rank, e := range errs {
			var ce *cluster.CrashError
			var fe *cluster.FaultError
			var ga errGenAbort
			switch {
			case e == nil:
			case errors.As(e, &ce):
				cause = e
				respawned[rank] = true
				sup.ArmRespawn(rank)
				h.Flight.Crash(rank, ce.Op, e)
			case errors.As(e, &ga), errors.As(e, &fe):
				if cause == nil {
					cause = e
				}
			default:
				return nil, e
			}
		}
		if cause == nil {
			break
		}
		if gen == maxGen {
			return nil, fmt.Errorf("massif: healing solve gave up after %d generations: %w", maxGen, cause)
		}
		c.ResetEpoch()
		sup.ResetGeneration()
		h.Flight.Note(0, fmt.Sprintf("generation %d aborted; epoch reset, respawning from checkpoints", gen))
		if startIter, err = resumeIter(h.Store, c.P); err != nil {
			return nil, err
		}
		// Rank 0 may have recorded iterations past the resume point.
		s.out.Iterations, s.out.Converged = startIter, false
	}

	out, err := s.finish()
	if err != nil {
		return nil, err
	}
	st := sup.Snapshot()
	out.Heal = &HealReport{
		Generations:         gen,
		Respawns:            st.Respawns,
		RespawnLatency:      st.RespawnLatency,
		HeartbeatDeaths:     st.HeartbeatDeaths,
		StragglersDetected:  st.StragglersDetected,
		SpeculativeWins:     st.SpeculativeWins,
		DuplicatesDiscarded: st.DuplicatesDiscarded,
		KRefinements:        refinements,
		SubSize:             opt.SubSize,
		CheckpointBytes:     h.Store.BytesWritten() - ckptBase,
	}
	for q, ok := range respawned {
		if ok {
			out.Heal.Respawned = append(out.Heal.Respawned, q)
		}
	}
	return out, nil
}

// resumeIter is the iteration a new generation resumes from: the oldest of
// the ranks' last deposits, 0 if a rank has none. A rank deposits at each
// iteration start and none passes an iteration's exchange before every rank
// has deposited it, so the last deposits are at most one iteration apart
// and a rank that is ahead still holds the resume iteration as its
// previous deposit.
func resumeIter(st *ckpt.Store, p int) (int, error) {
	iter := -1
	for q := 0; q < p; q++ {
		snap, err := st.LoadStrain(q)
		if err != nil || snap == nil {
			return 0, err
		}
		if iter < 0 || snap.Iter < iter {
			iter = snap.Iter
		}
	}
	return iter, nil
}

// errGenAbort is the in-band signal that a worker observed a peer death
// and is parking at the generation barrier: its checkpoint is complete,
// its strain is at the iteration-start state, and the outer loop should
// respawn everyone. It is not a failure.
type errGenAbort struct{ iter int }

func (e errGenAbort) Error() string {
	return fmt.Sprintf("massif: generation abort at iteration %d", e.iter)
}

// healer is the distributed policy of one rank in one generation: a
// checkpoint and a heartbeat at every iteration start, results deposited
// on (or adopted from) the supervisor's board, straggler help while peers
// compute, and a generation abort on any death.
type healer struct {
	w     *cluster.Worker
	store *ckpt.Store
	chaos *supervise.ChaosSchedule
	sup   *supervise.Supervisor
	peers map[int]*rank // backup state for peers this rank has helped
}

func (p *healer) begin(r *rank, iter int) error {
	p.sup.Beat(r.id, iter)
	if err := p.store.SaveStrain(&ckpt.Snapshot{Worker: r.id, Iter: iter, Strain: r.strain()}); err != nil {
		return err
	}
	p.sup.BeginCompute(r.id, iter)
	if d := p.chaos.Delay(r.id, iter); d > 0 {
		time.Sleep(d)
	}
	return nil
}

func (p *healer) exchange(r *rank, iter int) ([][][]sample.Patch, error) {
	var msgs [][]float64
	if v, ok := p.sup.Claim(r.id, iter); ok {
		// A backup already re-executed this straggler's boxes — adopt its
		// (deterministically identical) result and skip the slow compute.
		msgs = v.([][]float64)
	} else {
		if err := r.compute(); err != nil {
			return nil, err
		}
		msgs = r.encode()
		// Late finish after a backup deposited is discarded by sequence
		// number at the board (results are identical either way; the
		// counter records the wasted work).
		p.sup.Deposit(r.id, iter, msgs)
	}
	p.sup.EndCompute(r.id, iter)
	// While this rank blocks in the all-to-all on peers that still compute,
	// its plans are idle: a helper lends them to a straggler's backup. The
	// rank takes them back before it returns.
	done, helped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(helped)
		p.help(r, iter, done)
	}()
	recv, missing, err := p.w.AllToAllFT(msgs)
	close(done)
	<-helped
	if err != nil {
		return nil, err // this worker's own injected crash
	}
	if len(missing) > 0 {
		return nil, errGenAbort{iter}
	}
	return decode(recv)
}

func (p *healer) reduce(r *rank, iter int, partial []float64) ([]float64, float64, error) {
	total, mask, err := p.w.AllReduceSumFT(partial)
	if err != nil {
		return nil, 0, err
	}
	for _, dead := range mask {
		if dead {
			return nil, 0, errGenAbort{iter}
		}
	}
	return total, float64(len(r.s.boxes) * r.s.kd.Len()), nil
}

// help waits for a straggler while peers still compute iteration iter,
// until done closes, and serves at most one: the flagged rank's iteration
// re-executed from its checkpoint and deposited on the board. Stale flags
// (earlier iterations, or this rank's own compute flagged by a faster
// peer) are dropped unserved.
func (p *healer) help(r *rank, iter int, done <-chan struct{}) {
	for {
		q, qIter, ok := p.sup.AwaitHelp(r.id, iter, done)
		if !ok {
			return
		}
		if q != r.id && qIter == iter {
			if backup, err := p.backupFor(r, q, iter); err == nil {
				p.sup.Deposit(q, iter, backup)
			}
			return
		}
	}
}

// backupFor re-executes straggler q's iteration iter from its checkpoint
// on r's plans, with q's own rank state built on first use.
func (p *healer) backupFor(r *rank, q, iter int) ([][]float64, error) {
	snap, err := p.store.LoadStrainAt(q, iter)
	if err != nil || snap == nil {
		return nil, fmt.Errorf("massif: no usable checkpoint for straggler %d at iter %d", q, iter)
	}
	peer, ok := p.peers[q]
	if !ok {
		if peer, err = r.s.newRank(q, r.plans); err != nil {
			return nil, err
		}
		p.peers[q] = peer
	}
	peer.load(snap.Strain)
	if err := peer.compute(); err != nil {
		return nil, err
	}
	return peer.encode(), nil
}
