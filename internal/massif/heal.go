package massif

import (
	"errors"
	"fmt"
	"time"

	"lowcomm3d/internal/ckpt"
	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/supervise"
	"lowcomm3d/internal/telemetry"
)

// HealOptions tunes how SolveLowCommDistributed recovers: workers
// checkpoint every iteration, a supervisor watches heartbeats and
// stragglers, crashed workers are respawned from their checkpoints in a
// fresh cluster generation, stragglers' sub-domains are speculatively
// re-executed on idle workers, and when the plan's ledgered device
// allocations would exceed capacity the decomposition is automatically
// refined (smaller k) instead of failing — the paper's Table 4 capacity
// story as runtime behavior. The zero value is a working configuration.
type HealOptions struct {
	// Store holds the checkpoints; nil selects a store held in memory for
	// the one solve (ckpt.NewMemStore). A directory store (ckpt.NewStore)
	// keeps them on disk.
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
	// Flight, when non-nil, is threaded into the supervisor (heartbeats,
	// monitor deaths) and the checkpoint store (deposits), and the
	// healing loop records crash and generation-reset events into it, so a
	// postmortem names each dead rank's last heartbeat, collective, and
	// checkpoint. Wire the same recorder into the cluster's Options.Flight
	// to also capture per-worker collectives.
	Flight *telemetry.Recorder
}

// HealReport describes what the recovery did during a distributed solve.
type HealReport struct {
	Generations         int           // worker generations run (1 = no faults)
	Respawns            int64         // workers respawned from checkpoints
	Respawned           []int         // ranks that died and came back
	RespawnLatency      time.Duration // summed detection→first-beat time
	HeartbeatDeaths     int64         // deaths declared by the monitor
	StragglersDetected  int64         // (rank, iter) pairs flagged slow
	SpeculativeWins     int64         // straggler iterations served by a backup
	DuplicatesDiscarded int64         // late duplicate results dropped
	KRefinements        int           // admission-control decomposition refinements
	SubSize             int           // k actually solved with (after refinement)
	CheckpointBytes     int64         // bytes the store saved
}

// HealWorkerBytes models the honest per-worker device footprint of a
// distributed solve: the resident per-box strain and delta fields plus one
// shared stress scratch, and the streamed peak of ONE local pipeline (boxes
// run sequentially and release their buffer, see conv.Local.ReleaseBuffers).
// Refining k shrinks this charge — the pipeline's x spectra scale with k²
// and the resident term stays fixed at the grid share — which is exactly why
// admission control can heal an OOM by refining instead of failing.
func HealWorkerBytes(dim grid.Dim3, p int, opt LowCommOptions) int64 {
	k := opt.SubSize
	kd := int64(k) * int64(k) * int64(k)
	boxes := int64(dim.Len()) / kd
	per := (boxes + int64(p) - 1) / int64(p)     // worst-case round-robin share
	resident := per * 2 * grid.NumVoigt * 8 * kd // eps + delta per box
	resident += grid.NumVoigt * 8 * kd           // shared sigma scratch
	return resident + pipelineBytes(dim, opt)
}

// pipelineBytes is the one buffer of a six-component conv.Local on a box of
// edge k over the half spectrum h = N/2+1, per component: k·k·h complex of
// x spectra, h per kept row, and per pipeline worker (at most h) a kx block
// of max(k, kept planes) lines of N+4. The kept planes and rows are counted
// from the corner box's tree: the sampling rate is a function of torus
// distance, so every box's tree is a translate of it.
func pipelineBytes(dim grid.Dim3, opt LowCommOptions) int64 {
	n, k := dim.Nx, opt.SubSize
	h := n/2 + 1
	planes, rows := n, n*n // a tree that does not build is charged as full resolution
	if tree, err := boxTree(dim, grid.CubeAt(grid.Point{}, k), opt); err == nil {
		plane, row := map[int]bool{}, map[int]bool{}
		tree.ForEachSample(func(_, _, _, y, z int) { plane[z], row[z*n+y] = true, true })
		planes, rows = len(plane), len(row)
	}
	blocks := min(fft.Workers(opt.Workers), h) * max(k, planes) * (n + 4)
	return grid.NumVoigt * 16 * int64(k*k*h+h*rows+blocks)
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
