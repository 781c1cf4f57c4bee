package massif

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"lowcomm3d/internal/ckpt"
	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/green"
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
// shared stress scratch, and the streamed peak of ONE local pipeline
// (six N²k-complex slabs plus six kept-plane buffers; boxes run
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
	pipeline := int64(grid.NumVoigt) * 16 * int64(n) * int64(n) * int64(k)  // slabs
	pipeline += int64(grid.NumVoigt) * 16 * int64(n) * int64(n) * int64(nz) // kept z planes
	return resident + pipeline
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

// fillSigma computes σ = C(x):ε voxelwise for one sub-domain against the
// global phase map.
func fillSigma(m *Microstructure, box grid.Box, eps *grid.TensorField, kd grid.Dim3, sigma []*grid.Field) {
	k := kd.Nx
	for z := 0; z < k; z++ {
		for y := 0; y < k; y++ {
			for x := 0; x < k; x++ {
				s := m.StressAt(box.Lo[0]+x, box.Lo[1]+y, box.Lo[2]+z, eps.At(x, y, z))
				i := kd.Index(x, y, z)
				for v := 0; v < grid.NumVoigt; v++ {
					sigma[v].Data[i] = s[v]
				}
			}
		}
	}
}

// encodePeerMsgs splits the per-box compressed convolution results into
// one payload per destination rank: each peer receives only the patches
// overlapping its sub-domains (the paper's sparse all-to-all).
func encodePeerMsgs(results [][]*sample.Compressed, parts [][]grid.Box, bounds grid.Box, p int) [][]float64 {
	msgs := make([][]float64, p)
	for q := 0; q < p; q++ {
		perComp := make([][]sample.Patch, grid.NumVoigt)
		for _, comps := range results {
			for v, comp := range comps {
				for _, pt := range comp.Patches(bounds) {
					for _, qb := range parts[q] {
						if pt.Cell.Box.Overlaps(qb) {
							perComp[v] = append(perComp[v], pt)
							break
						}
					}
				}
			}
		}
		msgs[q] = sample.EncodeComponentPatches(perComp)
	}
	return msgs
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
	o := opt.Options.withDefaults()
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
		o.Trace.Counter("heal.k_refinements").Add(int64(refinements))
	}
	opt.SubSize = subSize

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
	kd := grid.Cube(opt.SubSize)

	h.Supervise.Flight = h.Flight
	h.Store.SetFlight(h.Flight)
	sup := supervise.New(c.P, h.Supervise)
	sup.Start(c.DeclareDead)
	defer sup.Stop()

	out := &LowCommResult{}
	out.Comm.SubDomains = len(boxes)
	strain := grid.NewTensorField(m.Dim)
	stress := grid.NewTensorField(m.Dim)
	out.Result.Strain = strain
	out.Result.Stress = stress
	residuals := make([]float64, o.MaxIter)
	iterDone := make([]int, c.P)
	converged := make([]bool, c.P)
	bytesPerIter := make([]int, c.P)
	samplesPerIter := make([]int, c.P)
	genC := o.Trace.Counter("heal.generations")

	startIter := 0
	respawned := map[int]bool{}

	runGeneration := func() []error {
		workerFn := func(w *cluster.Worker) error {
			owned := parts[w.ID]
			type boxState struct {
				box   grid.Box
				eps   *grid.TensorField
				local *conv.Local
			}
			// Restore from the durable checkpoint when one exists —
			// respawned replacements and surviving ranks alike resume from
			// their last deposited iteration-start strain (the states may
			// be one iteration apart across ranks; the fixed point is
			// contractive, so mixed-age states converge regardless).
			snap, err := h.Store.LoadStrain(w.ID)
			if err != nil {
				return err
			}
			// One transform pair per rank: its own pipelines and the
			// speculative backup pipelines below all share it.
			plans, err := conv.NewPlanSet(m.Dim, opt.Workers)
			if err != nil {
				return err
			}
			states := make([]*boxState, len(owned))
			for i, b := range owned {
				local, err := gammaLocal(plans, m, b, gamma, opt)
				if err != nil {
					return err
				}
				eps := grid.NewTensorField(kd)
				eps.Fill(E)
				if snap != nil && i < len(snap.Strain) {
					for v := 0; v < grid.NumVoigt; v++ {
						copy(eps.Comp[v].Data, snap.Strain[i][v])
					}
				}
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
			saveSnap := func(iter int) error {
				s := &ckpt.Snapshot{Worker: w.ID, Iter: iter, Strain: make([][][]float64, len(states))}
				for i, st := range states {
					s.Strain[i] = make([][]float64, grid.NumVoigt)
					for v := 0; v < grid.NumVoigt; v++ {
						s.Strain[i][v] = st.eps.Comp[v].Data
					}
				}
				return h.Store.SaveStrain(s)
			}
			// computeMsgs runs the full local compute for this worker's
			// boxes at their iteration-start strain: σ, local convolution,
			// sparse per-peer encoding. Pipelines stream (buffers released
			// per box) so the live footprint matches HealWorkerBytes.
			computeMsgs := func(states []*boxState) ([][]float64, int, int, error) {
				results := make([][]*sample.Compressed, 0, len(states))
				nsamp, nbytes := 0, 0
				for _, st := range states {
					fillSigma(m, st.box, st.eps, kd, sigma)
					comps := make([]*sample.Compressed, grid.NumVoigt)
					cs, err := st.local.RunComponents(sigma, comps)
					if err != nil {
						return nil, 0, 0, err
					}
					st.local.ReleaseBuffers()
					nsamp += cs.SampleCount
					nbytes += cs.SampleBytes
					results = append(results, comps)
				}
				return encodePeerMsgs(results, parts, m.Dim.Bounds(), c.P), nsamp, nbytes, nil
			}
			// Speculative backup state: pipelines for peers this worker has
			// helped, built lazily and keyed by rank.
			peerStates := map[int][]*boxState{}
			backupFor := func(rank, iter int) ([][]float64, error) {
				psnap, err := h.Store.LoadStrain(rank)
				if err != nil || psnap == nil || psnap.Iter != iter {
					return nil, fmt.Errorf("massif: no usable checkpoint for straggler %d at iter %d", rank, iter)
				}
				sts, ok := peerStates[rank]
				if !ok {
					for _, b := range parts[rank] {
						local, err := gammaLocal(plans, m, b, gamma, opt)
						if err != nil {
							return nil, err
						}
						sts = append(sts, &boxState{box: b, eps: grid.NewTensorField(kd), local: local})
					}
					peerStates[rank] = sts
				}
				for i, st := range sts {
					if i < len(psnap.Strain) {
						for v := 0; v < grid.NumVoigt; v++ {
							copy(st.eps.Comp[v].Data, psnap.Strain[i][v])
						}
					}
				}
				msgs, _, _, err := computeMsgs(sts)
				return msgs, err
			}

			for iter := startIter; iter < o.MaxIter; iter++ {
				sup.Beat(w.ID, iter)
				if err := saveSnap(iter); err != nil {
					return err
				}
				sup.BeginCompute(w.ID, iter)
				if d := h.Chaos.Delay(w.ID, iter); d > 0 {
					time.Sleep(d)
				}
				var msgs [][]float64
				if v, ok := sup.Claim(w.ID, iter); ok {
					// A backup already re-executed this straggler's boxes —
					// adopt its (deterministically identical) result and
					// skip the slow compute entirely.
					msgs = v.([][]float64)
				} else {
					var nsamp, nbytes int
					msgs, nsamp, nbytes, err = computeMsgs(states)
					if err != nil {
						return err
					}
					bytesPerIter[w.ID] = nbytes
					samplesPerIter[w.ID] = nsamp
					// Late finish after a backup deposited is discarded by
					// sequence number at the board (results are identical
					// either way; the counter records the wasted work).
					sup.Deposit(w.ID, iter, msgs)
				}
				sup.EndCompute(w.ID, iter)
				// Idle before the collective: while a peer is still computing
				// this iteration the all-to-all would block on it anyway, so
				// polling for straggler flags here is free. Serve at most one
				// backup; the deadline bounds the wait if a peer dies inside
				// its compute phase and its in-flight mark never clears.
				helpDeadline := time.Now().Add(helpPollBudget)
				for sup.PeersPending(w.ID, iter) && time.Now().Before(helpDeadline) {
					sup.CheckStragglers()
					rank, hIter, ok := sup.HelpRequest()
					if !ok {
						time.Sleep(helpPollInterval)
						continue
					}
					// Stale flags (earlier iterations, or this worker's own
					// compute flagged by a faster peer) are dropped unserved.
					if rank != w.ID && hIter == iter {
						if backupMsgs, err := backupFor(rank, hIter); err == nil {
							sup.Deposit(rank, hIter, backupMsgs)
						}
						break
					}
				}

				recv, missing, err := w.AllToAllFT(msgs)
				if err != nil {
					return err // this worker's own injected crash
				}
				if len(missing) > 0 {
					return errGenAbort{iter}
				}
				for i := range deltas {
					for v := range deltas[i].Comp {
						deltas[i].Comp[v].Zero()
					}
				}
				for q := 0; q < c.P; q++ {
					perComp, err := sample.DecodeComponentPatches(recv[q])
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
				for _, d := range mask {
					if d {
						return errGenAbort{iter}
					}
				}
				nTot := float64(len(boxes) * kd.Len())
				delta2 := 0.0
				var mean [grid.NumVoigt]float64
				for v := 0; v < grid.NumVoigt; v++ {
					mean[v] = tot[v] / nTot
					wgt := 1.0
					if v >= grid.VYZ {
						wgt = 2.0
					}
					delta2 += wgt * (tot[grid.NumVoigt+v] - nTot*mean[v]*mean[v])
				}
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
					residuals[iter] = r
				}
				if r < o.Tol {
					converged[w.ID] = true
					break
				}
			}

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
		return c.RunAll(workerFn)
	}

	gen := 0
	for {
		gen++
		if gen > maxGen {
			return nil, fmt.Errorf("massif: healing solve exceeded %d generations", maxGen)
		}
		genC.Add(1)
		errs := runGeneration()
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
		next := startIter
		for q := 0; q < c.P; q++ {
			if s, err := h.Store.LoadStrain(q); err == nil && s != nil && s.Iter > next {
				next = s.Iter
			}
		}
		startIter = next
	}

	out.Iterations = iterDone[0]
	out.Converged = converged[0]
	out.Residuals = append(out.Residuals, residuals[:out.Iterations]...)
	out.Comm.Iterations = out.Iterations
	for wID := range bytesPerIter {
		out.Comm.BytesPerIter += bytesPerIter[wID]
		out.Comm.SamplesPerIter += samplesPerIter[wID]
	}
	out.Comm.DenseBytesPerIter = 8 * m.Dim.Len() * grid.NumVoigt * len(boxes)

	st := sup.Snapshot()
	report := &HealReport{
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
	for q := range respawned {
		report.Respawned = append(report.Respawned, q)
	}
	sort.Ints(report.Respawned)
	out.Heal = report

	if _, err := m.StressField(strain, stress); err != nil {
		return nil, err
	}
	return out, nil
}
