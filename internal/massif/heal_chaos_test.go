package massif

import (
	"errors"
	"testing"
	"time"

	"lowcomm3d/internal/ckpt"
	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs"
	"lowcomm3d/internal/sample"
	"lowcomm3d/internal/supervise"
)

// chaosMicro is the shared test problem of the fault tests: a small stiff
// inclusion inside box 0.
func chaosMicro(t *testing.T, n int) (*Microstructure, grid.SymTensor) {
	t.Helper()
	p0, p1 := steelAndSoft()
	m, err := NewMicrostructure(grid.Cube(n), p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetSphere(grid.Point{4, 4, 4}, 2, 1); err != nil {
		t.Fatal(err)
	}
	return m, grid.SymTensor{0.01, 0, 0, 0, 0, 0.002}
}

// healSolve runs a healing distributed solve with a deadlock guard.
func healSolve(t *testing.T, c *cluster.Cluster, m *Microstructure, E grid.SymTensor, opt LowCommOptions) (*LowCommResult, error) {
	t.Helper()
	done := make(chan struct{})
	var res *LowCommResult
	var err error
	go func() {
		res, err = SolveLowCommDistributed(c, m, E, opt)
		close(done)
	}()
	select {
	case <-done:
		return res, err
	case <-time.After(120 * time.Second):
		t.Fatal("healing solve deadlocked")
		return nil, nil
	}
}

// TestSelfHealingSolveChaosSchedules is the acceptance test for the
// self-healing solve on a directory store: under seeded crash schedules at
// P ∈ {2, 4, 7} — including a root (rank 0) death — every crashed worker is
// respawned from its durable checkpoint, and the healed solution matches
// the serial reference within the paper's ≤3% L2 tolerance.
func TestSelfHealingSolveChaosSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second distributed solves; skipped in -short")
	}
	m, E := chaosMicro(t, 16)
	// Full-resolution sampling so the fixed point genuinely converges at
	// this tolerance (see TestDistributedSurvivesWorkerCrash for why).
	base := LowCommOptions{
		Options: Options{Tol: 1e-4, MaxIter: 40},
		SubSize: 8, FullRes: true,
	}
	serial, err := SolveLowComm(m, E, base)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Iterations < 4 {
		t.Fatalf("serial solve converged in %d iterations; the crash schedules never fire", serial.Iterations)
	}

	// Op counting: each solver iteration is two collectives, so op 2i+1
	// is iteration i's all-to-all and op 2i+2 its all-reduce. One-shot
	// crash points fire at the first op ≥ Op, so later points land in
	// whatever generation reaches them — the healing loop must converge
	// regardless of where in the respawn history a crash hits.
	cases := []struct {
		name      string
		p         int
		crashes   []cluster.CrashPoint
		respawned []int
	}{
		{"P2-peer-crash", 2, []cluster.CrashPoint{{Worker: 1, Op: 3}}, []int{1}},
		{"P4-root-then-peer", 4, []cluster.CrashPoint{{Worker: 0, Op: 5}, {Worker: 2, Op: 9}}, []int{0, 2}},
		{"P7-two-crashes", 7, []cluster.CrashPoint{{Worker: 3, Op: 3}, {Worker: 5, Op: 9}}, []int{3, 5}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			store, err := ckpt.NewStore(t.TempDir(), obs.New())
			if err != nil {
				t.Fatal(err)
			}
			inj := cluster.NewFaultInjector(cluster.FaultPlan{Seed: 7, Crashes: tc.crashes})
			c, err := cluster.NewWithOptions(tc.p, cluster.DefaultParams(), cluster.Options{
				RecvTimeout: 50 * time.Millisecond,
				RetryBudget: 4,
				Transport:   inj,
			})
			if err != nil {
				t.Fatal(err)
			}
			opt := base
			opt.Heal = &HealOptions{
				Store:     store,
				Supervise: supervise.Options{Trace: obs.New()},
			}
			res, solveErr := healSolve(t, c, m, E, opt)
			if solveErr != nil {
				t.Fatal(solveErr)
			}
			if res.Heal == nil {
				t.Fatal("healing solve returned no heal report")
			}
			if !res.Converged {
				t.Fatalf("healed solve did not converge (residuals %v)", res.Residuals)
			}
			if res.Heal.Generations < 2 {
				t.Errorf("generations = %d, want ≥ 2 (crashes must force respawn rounds)", res.Heal.Generations)
			}
			if res.Heal.Respawns < int64(len(tc.crashes)) {
				t.Errorf("respawns = %d, want ≥ %d", res.Heal.Respawns, len(tc.crashes))
			}
			if len(res.Heal.Respawned) != len(tc.respawned) {
				t.Errorf("respawned ranks %v, want %v", res.Heal.Respawned, tc.respawned)
			} else {
				for i, q := range tc.respawned {
					if res.Heal.Respawned[i] != q {
						t.Errorf("respawned ranks %v, want %v", res.Heal.Respawned, tc.respawned)
						break
					}
				}
			}
			if res.Heal.CheckpointBytes <= 0 {
				t.Error("no durable checkpoint bytes recorded")
			}
			if res.Heal.KRefinements != 0 || res.Heal.SubSize != base.SubSize {
				t.Errorf("unexpected refinement: k=%d refinements=%d", res.Heal.SubSize, res.Heal.KRefinements)
			}
			r, err := grid.RelL2Tensor(res.Strain, serial.Strain)
			if err != nil {
				t.Fatal(err)
			}
			if r > 0.03 {
				t.Errorf("healed strain differs from serial by %g, want ≤ 3%%", r)
			}
		})
	}
}

// findStragglerSchedule scans seeds for a deterministic chaos schedule in
// which worker 1 straggles at exactly one iteration late enough for the
// duration history to be armed (≥ 2), and worker 0 never straggles.
func findStragglerSchedule(maxIter int, delay time.Duration) *supervise.ChaosSchedule {
	for seed := uint64(1); seed < 10000; seed++ {
		cs := &supervise.ChaosSchedule{Seed: seed, StraggleProb: 0.25, StraggleDelay: delay}
		hits, ok := 0, true
		for it := 0; it < maxIter && ok; it++ {
			if cs.Delay(0, it) > 0 {
				ok = false
			}
			if cs.Delay(1, it) > 0 {
				if it < 2 {
					ok = false
				}
				hits++
			}
		}
		if ok && hits == 1 {
			return cs
		}
	}
	return nil
}

// TestSelfHealingSpeculativeReexecution injects a deterministic straggle
// on worker 1 and checks the supervision layer flags it and an idle peer
// re-executes its sub-domains from the durable checkpoint: the straggler
// claims the speculative result instead of finishing its slow compute,
// and no respawn generation is needed.
func TestSelfHealingSpeculativeReexecution(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second distributed solve; skipped in -short")
	}
	m, E := chaosMicro(t, 16)
	const maxIter = 6
	chaos := findStragglerSchedule(maxIter, 1500*time.Millisecond)
	if chaos == nil {
		t.Fatal("no straggler seed found in scan range")
	}
	store, err := ckpt.NewStore(t.TempDir(), obs.New())
	if err != nil {
		t.Fatal(err)
	}
	// Generous receive budget: the healthy worker must wait out the
	// straggler's delay at the all-to-all, not declare it dead.
	c, err := cluster.NewWithOptions(2, cluster.DefaultParams(), cluster.Options{
		RecvTimeout: 500 * time.Millisecond,
		RetryBudget: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Tiny tolerance so the solve runs all iterations; an aggressive
	// straggler cutoff so the single injected delay is flagged fast.
	opt := LowCommOptions{
		Options: Options{Tol: 1e-9, MaxIter: maxIter},
		SubSize: 8, FarRate: 4,
		Heal: &HealOptions{
			Store: store,
			Chaos: chaos,
			// Default straggler cutoff (max(4×median, 50ms)): the healthy
			// worker's help-poll loop flags the 1.5s sleeper ~50ms in and
			// has the backup deposited long before it wakes.
			Supervise: supervise.Options{Trace: obs.New()},
		},
	}
	res, solveErr := healSolve(t, c, m, E, opt)
	if solveErr != nil {
		t.Fatal(solveErr)
	}
	if res.Heal.Generations != 1 {
		t.Errorf("generations = %d, want 1 (straggle must heal without respawn)", res.Heal.Generations)
	}
	if res.Heal.Respawns != 0 {
		t.Errorf("respawns = %d, want 0", res.Heal.Respawns)
	}
	if res.Heal.StragglersDetected < 1 {
		t.Errorf("stragglers detected = %d, want ≥ 1", res.Heal.StragglersDetected)
	}
	if res.Heal.SpeculativeWins < 1 {
		t.Errorf("speculative wins = %d, want ≥ 1 (backup must beat the straggler)", res.Heal.SpeculativeWins)
	}
}

// TestSelfHealingAdmissionRefinesK is the Table 4 capacity story as
// runtime behavior: on a V100-16GB fleet whose free memory admits the
// k=4 plan but not the k=8 plan, the healing solve refines the
// decomposition automatically and completes instead of returning
// ErrOutOfMemory — and releases its ledger allocations afterwards.
func TestSelfHealingAdmissionRefinesK(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second distributed solve; skipped in -short")
	}
	m, E := chaosMicro(t, 16)
	const p = 2
	opt := LowCommOptions{
		Options: Options{Tol: 1e-4, MaxIter: 6},
		SubSize: 8, FarRate: 4,
	}
	charge8 := HealWorkerBytes(m.Dim, p, opt)
	opt4 := opt
	opt4.SubSize = 4
	charge4 := HealWorkerBytes(m.Dim, p, opt4)
	if charge4 >= charge8 {
		t.Fatalf("memory model not monotone in k: charge(k=4)=%d ≥ charge(k=8)=%d", charge4, charge8)
	}
	// Pre-fill each device with a tenant allocation so the free space
	// sits strictly between the k=4 and k=8 per-worker charges.
	free := charge4 + (charge8-charge4)/2
	newFleet := func() []*gpu.Device {
		devs := make([]*gpu.Device, p)
		for i := range devs {
			d := gpu.V100_16GB()
			if _, err := d.Alloc(d.Capacity - free); err != nil {
				t.Fatal(err)
			}
			devs[i] = d
		}
		return devs
	}

	store, err := ckpt.NewStore(t.TempDir(), obs.New())
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.NewWithOptions(p, cluster.DefaultParams(), cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	devs := newFleet()
	hopt := opt
	hopt.Heal = &HealOptions{
		Store:     store,
		Devices:   devs,
		Supervise: supervise.Options{Trace: obs.New()},
	}
	res, solveErr := healSolve(t, c, m, E, hopt)
	if solveErr != nil {
		t.Fatalf("OOM-constrained solve failed instead of refining: %v", solveErr)
	}
	if res.Heal.KRefinements < 1 {
		t.Errorf("k refinements = %d, want ≥ 1", res.Heal.KRefinements)
	}
	if res.Heal.SubSize != 4 {
		t.Errorf("admitted sub-domain size = %d, want 4 (next divisor of 16 below 8)", res.Heal.SubSize)
	}
	if want := 16 * 16 * 16 / (4 * 4 * 4); res.Comm.SubDomains != want {
		t.Errorf("sub-domains = %d, want %d (solve must run at the refined k)", res.Comm.SubDomains, want)
	}
	for i, d := range devs {
		if got := d.Used(); got != d.Capacity-free {
			t.Errorf("device %d holds %d bytes after solve, want tenant-only %d (admission allocations leaked)", i, got, d.Capacity-free)
		}
	}

	// With refinement floored at k=8 no smaller plan exists: admission
	// must fail with a typed OOM instead of solving anyway.
	c2, err := cluster.NewWithOptions(p, cluster.DefaultParams(), cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fopt := opt
	fopt.Heal = &HealOptions{
		Store:      store,
		Devices:    newFleet(),
		MinSubSize: 8,
		Supervise:  supervise.Options{Trace: obs.New()},
	}
	if _, err := SolveLowCommDistributed(c2, m, E, fopt); !errors.Is(err, gpu.ErrOutOfMemory) {
		t.Errorf("floored admission returned %v, want ErrOutOfMemory", err)
	}
}

// TestHealWorkerBytesMatchesPipeline pins the admission model's two pipeline
// terms to what a real six-component pipeline allocates: the half-spectrum
// slab of k planes and the kept-plane buffer, both (N/2+1)·N per plane.
func TestHealWorkerBytesMatchesPipeline(t *testing.T) {
	p0, p1 := steelAndSoft()
	for _, nk := range [][2]int{{16, 8}, {32, 8}} {
		n, k := nk[0], nk[1]
		m, err := NewMicrostructure(grid.Cube(n), p0, p1)
		if err != nil {
			t.Fatal(err)
		}
		plans, err := conv.NewPlanSet(m.Dim, 1)
		if err != nil {
			t.Fatal(err)
		}
		opt := LowCommOptions{Options: Options{Workers: 1}, SubSize: k, FarRate: 8}
		lambda0, mu0 := m.ReferenceMedium()
		local, err := gammaLocal(plans, m, grid.CubeAt(grid.Point{}, k), green.Gamma{Lambda0: lambda0, Mu0: mu0}, opt)
		if err != nil {
			t.Fatal(err)
		}
		sigma := make([]*grid.Field, grid.NumVoigt)
		for v := range sigma {
			sigma[v] = grid.NewField(grid.Cube(k))
			sigma[v].Fill(float64(v + 1))
		}
		st, err := local.RunComponents(sigma, make([]*sample.Compressed, grid.NumVoigt))
		if err != nil {
			t.Fatal(err)
		}
		if got := pipelineBytes(n, k); got != int64(st.SlabBytes) {
			t.Errorf("N=%d k=%d: modeled slab %d B, pipeline allocates %d B", n, k, got, st.SlabBytes)
		}
		if got := pipelineBytes(n, st.KeptZPlanes); got != int64(st.PlanesBytes) {
			t.Errorf("N=%d k=%d: modeled %d kept planes at %d B, pipeline allocates %d B", n, k, st.KeptZPlanes, got, st.PlanesBytes)
		}
	}
}
