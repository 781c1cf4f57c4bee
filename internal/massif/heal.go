package massif

import (
	"errors"
	"fmt"
	"time"

	"lowcomm3d/internal/ckpt"
	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/sample"
	"lowcomm3d/internal/supervise"
	"lowcomm3d/internal/telemetry"
)

// HealOptions upgrades SolveLowCommDistributed from degrade-on-fault to
// heal-on-fault: workers checkpoint durably every iteration, a supervisor
// watches heartbeats and stragglers, crashed workers are respawned from
// their durable checkpoints in a fresh cluster generation, stragglers'
// sub-domains are speculatively re-executed on idle workers, and when the
// plan's ledgered device allocations would exceed capacity the
// decomposition is automatically refined (smaller k) instead of failing —
// the paper's Table 4 capacity story as runtime behavior.
type HealOptions struct {
	// Store is the durable checkpoint directory (required).
	Store *ckpt.Store
	// Supervise tunes heartbeat monitoring and straggler detection.
	Supervise supervise.Options
	// Chaos injects deterministic compute straggle (tests/benchmarks).
	Chaos *supervise.ChaosSchedule
	// Devices is the simulated accelerator fleet for admission control;
	// worker w charges Devices[w mod len]. Empty disables admission.
	Devices []*gpu.Device
	// MinSubSize floors k-refinement (default 2).
	MinSubSize int
	// MaxGenerations caps respawn rounds (default 2P+2).
	MaxGenerations int
	// Flight, when non-nil, is threaded into the supervisor (heartbeats,
	// monitor deaths) and the checkpoint store (durable deposits), and the
	// healing loop records crash and generation-reset events into it, so a
	// postmortem names each dead rank's last heartbeat, collective, and
	// checkpoint. Wire the same recorder into the cluster's Options.Flight
	// to also capture per-worker collectives.
	Flight *telemetry.Recorder
}

// HealReport describes what the supervision layer did during a healing
// solve.
type HealReport struct {
	Generations         int           // worker generations run (1 = no faults)
	Respawns            int64         // workers respawned from durable checkpoints
	Respawned           []int         // ranks that died and came back
	RespawnLatency      time.Duration // summed detection→first-beat time
	HeartbeatDeaths     int64         // deaths declared by the monitor
	StragglersDetected  int64         // (rank, iter) pairs flagged slow
	SpeculativeWins     int64         // straggler iterations served by a backup
	DuplicatesDiscarded int64         // late duplicate results dropped
	KRefinements        int           // admission-control decomposition refinements
	SubSize             int           // k actually solved with (after refinement)
	CheckpointBytes     int64         // durable bytes written by the store
}

// helpPollBudget caps how long an idle worker polls for straggler help
// requests while peers are still computing; helpPollInterval is the poll
// period. The budget only matters when a peer dies mid-compute — the
// loop otherwise exits as soon as every peer reaches its collective.
const (
	helpPollBudget   = 2 * time.Second
	helpPollInterval = 200 * time.Microsecond
)

// errGenAbort is the in-band signal that a worker observed a peer death
// and is parking at the generation barrier: its durable checkpoint is
// complete, its strain is at the iteration-start state, and the outer
// loop should respawn everyone. It is not a failure.
type errGenAbort struct{ iter int }

func (e errGenAbort) Error() string {
	return fmt.Sprintf("massif: generation abort at iteration %d", e.iter)
}

// HealWorkerBytes models the honest per-worker device footprint of a
// healing solve: the resident per-box strain and delta fields plus one
// shared stress scratch, and the streamed peak of ONE local pipeline (six
// half-spectrum slabs of k planes plus six kept-plane buffers; boxes run
// sequentially and release their buffers, see conv.Local.ReleaseBuffers).
// Refining k shrinks this charge — the slab term scales with k and the
// resident term stays fixed at the grid share — which is exactly why
// admission control can heal an OOM by refining instead of failing.
func HealWorkerBytes(dim grid.Dim3, p int, opt LowCommOptions) int64 {
	n := dim.Nx
	k := opt.SubSize
	kd := int64(k) * int64(k) * int64(k)
	boxes := int64(dim.Len()) / kd
	per := (boxes + int64(p) - 1) / int64(p)     // worst-case round-robin share
	resident := per * 2 * grid.NumVoigt * 8 * kd // eps + delta per box
	resident += grid.NumVoigt * 8 * kd           // shared sigma scratch
	nz := n
	if !opt.FullRes {
		far := opt.FarRate
		if far == 0 {
			far = 16
		}
		nz = gpu.KeptZPlanes(n, k, far)
	}
	return resident + pipelineBytes(n, k) + pipelineBytes(n, nz)
}

// pipelineBytes is one six-component conv.Local buffer of depth z planes
// over the half spectrum: 16·(N/2+1)·N·depth bytes per component.
func pipelineBytes(n, depth int) int64 {
	return grid.NumVoigt * 16 * int64(n/2+1) * int64(n) * int64(depth)
}

// refineSubSize returns the next smaller sub-domain edge that still
// divides every grid dimension, or 0 when none exists at or above minK.
func refineSubSize(dim grid.Dim3, k, minK int) int {
	for kk := k - 1; kk >= minK; kk-- {
		if dim.Nx%kk == 0 && dim.Ny%kk == 0 && dim.Nz%kk == 0 {
			return kk
		}
	}
	return 0
}

// admitWorkers charges each worker's modeled footprint to its device,
// refining the decomposition until the fleet admits the plan. It returns
// the admitted sub-domain size, the live ledger allocations (freed by the
// caller after the solve), and how many refinements were needed.
func admitWorkers(dim grid.Dim3, p int, opt LowCommOptions, h *HealOptions) (int, []*gpu.Allocation, int, error) {
	if len(h.Devices) == 0 {
		return opt.SubSize, nil, 0, nil
	}
	minK := h.MinSubSize
	if minK <= 0 {
		minK = 2
	}
	refinements := 0
	k := opt.SubSize
	for {
		trial := opt
		trial.SubSize = k
		charge := HealWorkerBytes(dim, p, trial)
		allocs := make([]*gpu.Allocation, 0, p)
		var oom error
		for w := 0; w < p; w++ {
			a, err := h.Devices[w%len(h.Devices)].Alloc(charge)
			if err != nil {
				oom = err
				break
			}
			allocs = append(allocs, a)
		}
		if oom == nil {
			return k, allocs, refinements, nil
		}
		for _, a := range allocs {
			a.Free()
		}
		if !errors.Is(oom, gpu.ErrOutOfMemory) {
			return 0, nil, refinements, oom
		}
		next := refineSubSize(dim, k, minK)
		if next == 0 {
			return 0, nil, refinements, fmt.Errorf("massif: admission failed at minimum sub-domain %d: %w", k, oom)
		}
		k = next
		refinements++
	}
}

// solveSelfHealing is the heal-on-fault distributed solve: generations of
// workers run Algorithm 2 in lockstep; any worker death aborts the
// generation at the iteration barrier (every survivor's durable
// checkpoint is then at an iteration-start state), the cluster epoch is
// reset, and a full replacement generation respawns from the durable
// checkpoints — the fixed point resumes with zero frozen sub-domains.
func solveSelfHealing(c *cluster.Cluster, m *Microstructure, E grid.SymTensor, opt LowCommOptions) (*LowCommResult, error) {
	h := opt.Heal
	if h.Store == nil {
		return nil, fmt.Errorf("massif: healing solve requires a checkpoint store")
	}
	// The store's byte counter is cumulative across every solve sharing
	// its trace; report only this solve's durable writes.
	ckptBase := h.Store.BytesWritten()
	maxGen := h.MaxGenerations
	if maxGen <= 0 {
		maxGen = 2*c.P + 2
	}

	// Admission control: charge the fleet before any pipeline exists,
	// refining k until the plan fits (Table 4 as runtime behavior).
	subSize, admissions, refinements, err := admitWorkers(m.Dim, c.P, opt, h)
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

	startIter := 0
	respawned := make([]bool, c.P)
	gen := 0
	for {
		gen++
		if gen > maxGen {
			return nil, fmt.Errorf("massif: healing solve exceeded %d generations", maxGen)
		}
		genC.Add(1)
		errs := c.RunAll(func(w *cluster.Worker) error {
			// Respawned replacements and surviving ranks alike resume from
			// their last deposited iteration-start strain (the states may
			// be one iteration apart across ranks; the fixed point is
			// contractive, so mixed-age states converge regardless).
			snap, err := h.Store.LoadStrain(w.ID)
			if err != nil {
				return err
			}
			r, err := s.newRank(w.ID, nil)
			if err != nil {
				return err
			}
			if snap != nil {
				r.load(snap.Strain)
			}
			return r.run(startIter, &healer{w: w, h: h, sup: sup, peers: map[int]*rank{}})
		})
		aborted := false
		for rank, e := range errs {
			if e == nil {
				continue
			}
			var ce *cluster.CrashError
			var fe *cluster.FaultError
			var ga errGenAbort
			switch {
			case errors.As(e, &ce):
				aborted = true
				respawned[rank] = true
				sup.ArmRespawn(rank)
				h.Flight.Crash(rank, ce.Op, e)
			case errors.As(e, &ga), errors.As(e, &fe):
				aborted = true
			default:
				return nil, e
			}
		}
		if !aborted {
			break
		}
		// Only ranks whose own run ended in a transport crash count as
		// respawned: survivors parked at the barrier (errGenAbort) or caught
		// in a peer's death (FaultError) restart with the generation anyway,
		// and monitor kills are accounted by the heartbeat-deaths counter.
		c.ResetEpoch()
		sup.ResetGeneration()
		h.Flight.Note(0, fmt.Sprintf("generation %d aborted; epoch reset, respawning from durable checkpoints", gen))
		// Resume from the newest durable deposit: every rank restores its
		// own checkpoint (older ones lag at most one iteration; the
		// contraction absorbs the skew).
		for q := 0; q < c.P; q++ {
			if snap, err := h.Store.LoadStrain(q); err == nil && snap != nil && snap.Iter > startIter {
				startIter = snap.Iter
			}
		}
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

// healer is the heal-on-fault policy of one rank in one generation: a
// durable checkpoint and a heartbeat at every iteration start, results
// deposited on (or adopted from) the supervisor's board, straggler help
// while peers compute, and a generation abort on any death.
type healer struct {
	w     *cluster.Worker
	h     *HealOptions
	sup   *supervise.Supervisor
	peers map[int]*rank // backup state for peers this rank has helped
}

func (p *healer) begin(r *rank, iter int) error {
	p.sup.Beat(r.id, iter)
	if err := p.h.Store.SaveStrain(&ckpt.Snapshot{Worker: r.id, Iter: iter, Strain: r.strain()}); err != nil {
		return err
	}
	p.sup.BeginCompute(r.id, iter)
	if d := p.h.Chaos.Delay(r.id, iter); d > 0 {
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
	// Idle before the collective: while a peer is still computing this
	// iteration the all-to-all would block on it anyway, so polling for
	// straggler flags here is free. Serve at most one backup; the deadline
	// bounds the wait if a peer dies inside its compute phase and its
	// in-flight mark never clears.
	deadline := time.Now().Add(helpPollBudget)
	for p.sup.PeersPending(r.id, iter) && time.Now().Before(deadline) {
		p.sup.CheckStragglers()
		q, qIter, ok := p.sup.HelpRequest()
		if !ok {
			time.Sleep(helpPollInterval)
			continue
		}
		// Stale flags (earlier iterations, or this worker's own compute
		// flagged by a faster peer) are dropped unserved.
		if q != r.id && qIter == iter {
			if backup, err := p.backupFor(r, q, iter); err == nil {
				p.sup.Deposit(q, iter, backup)
			}
			break
		}
	}
	recv, missing, err := p.w.AllToAllFT(msgs)
	if err != nil {
		return nil, err // this worker's own injected crash
	}
	if len(missing) > 0 {
		return nil, errGenAbort{iter}
	}
	return decode(recv)
}

func (p *healer) reduce(r *rank, iter int, partial []float64) ([]float64, float64, bool, error) {
	total, mask, err := p.w.AllReduceSumFT(partial)
	if err != nil {
		return nil, 0, false, err
	}
	for _, dead := range mask {
		if dead {
			return nil, 0, false, errGenAbort{iter}
		}
	}
	return total, float64(len(r.s.boxes) * r.s.kd.Len()), false, nil
}

// backupFor re-executes straggler q's iteration iter from its durable
// checkpoint on r's plans, with q's own rank state built on first use.
func (p *healer) backupFor(r *rank, q, iter int) ([][]float64, error) {
	snap, err := p.h.Store.LoadStrain(q)
	if err != nil || snap == nil || snap.Iter != iter {
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
