package conv

import (
	"fmt"
	"time"

	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs"
	"lowcomm3d/internal/octree"
	"lowcomm3d/internal/sample"
)

// Pointwise is the frequency-domain callback applied between the forward
// and inverse stages — the role played by cuFFT callback functions in the
// paper's proof of concept (Fig. 4) and by the pointwise sub-plan in its
// FFTX sketch (Fig. 5). It is called once per (kx, ky) pencil: spec[c] is
// the forward-transformed length-N z line of component c (index = kz),
// rewritten in place. Seeing every component of a frequency at once is what
// lets a tensor kernel (MASSIF's Γ̂) couple them; a scalar kernel scales
// each line independently. Calls for different pencils run concurrently.
type Pointwise func(kx, ky int, spec [][]complex128)

// KernelPointwise adapts a scalar kernel to a Pointwise callback.
// Separable kernels (green.Separable) get a fast path: three per-axis
// tables are precomputed once, so the hot pencil loop multiplies three
// table entries instead of evaluating the transcendental Hat per point,
// with the (kx, ky) product hoisted out of the kz loop.
func KernelPointwise(d grid.Dim3, k green.Kernel) Pointwise {
	if s, ok := k.(green.Separable); ok {
		tx := make([]float64, d.Nx)
		for kx := range tx {
			tx[kx] = s.AxisHat(d.Nx, kx)
		}
		ty := tx
		if d.Ny != d.Nx {
			ty = make([]float64, d.Ny)
			for ky := range ty {
				ty[ky] = s.AxisHat(d.Ny, ky)
			}
		}
		tz := tx
		switch {
		case d.Nz == d.Nx:
		case d.Nz == d.Ny:
			tz = ty
		default:
			tz = make([]float64, d.Nz)
			for kz := range tz {
				tz[kz] = s.AxisHat(d.Nz, kz)
			}
		}
		return func(kx, ky int, spec [][]complex128) {
			txy := tx[kx] * ty[ky]
			for _, line := range spec {
				for kz, v := range line {
					line[kz] = v * complex(txy*tz[kz], 0)
				}
			}
		}
	}
	return func(kx, ky int, spec [][]complex128) {
		for _, line := range spec {
			for kz, v := range line {
				line[kz] = v * complex(k.Hat(d, kx, ky, kz), 0)
			}
		}
	}
}

// Config tunes the local pipeline.
type Config struct {
	Workers int // goroutines for batched pencil stages (≤0: GOMAXPROCS)
	BatchB  int // pencils per batch, the paper's §5.4 batch parameter (≤0: one batch)

	// Trace, when non-nil, records per-stage spans ("conv.run",
	// "conv.stageA/B/C"), per-stage latency histograms
	// ("conv.stage_a/b/c_seconds"), per-worker pencil spans, and the
	// counters/gauges behind Stats (conv.pencils, conv.samples,
	// conv.sample_bytes, conv.flops_model, conv.peak_bytes). Nil disables
	// all recording.
	Trace *obs.Trace
}

// Stats reports the footprint and work of one local convolution, the
// quantities behind the paper's Tables 1 and 4. The byte and sample figures
// cover all C components of the pipeline.
type Stats struct {
	SlabBytes   int // C slabs of N×N×k complex
	PlanesBytes int // kept inverse planes, C×N×N×|Z| complex
	SampleBytes int // compressed outputs (samples + octree metadata)
	PeakBytes   int // max simultaneously-live intermediate footprint
	ModelBytes  int // the paper's 8·N²·k back-of-envelope figure, times C
	KeptZPlanes int
	PencilCount int
	SampleCount int
	Compression float64 // dense result bytes / compressed bytes

	// Per-stage wall time, measured whether or not a Trace is attached, so
	// job timelines can attribute compute latency to stages A/B/C.
	StageA time.Duration // forward 2D slab transforms
	StageB time.Duration // batched 1D z transforms + pointwise
	StageC time.Duration // inverse 2D planes + octree gather
}

// Local performs the paper's domain-local convolution of one k³ sub-domain
// against a full-grid kernel: the dense N³ result is never materialized;
// the output is the octree-compressed sampling of the full-grid circular
// convolution. All transforms are local — no data leaves the worker until
// the compressed samples are exchanged in the accumulation step. A pipeline
// carries C ≥ 1 component fields through the stages together (C = 1 for a
// scalar kernel, six Voigt components for MASSIF's Γ̂), coupled only inside
// the Pointwise callback.
type Local struct {
	dim    grid.Dim3
	sub    grid.Box
	comps  int
	pw     Pointwise
	tree   *octree.Tree
	cfg    Config
	plan2d *fft.Plan2D
	planZ  *fft.Plan

	// Sampling index: for each kept z plane, the (x, y, sampleIdx) triples
	// to gather after the inverse 2D transform of that plane.
	zIndex map[int][]gatherPoint
	keptZ  []int
	zSlot  map[int]int

	// Reused working buffers (Run is therefore not safe for concurrent
	// use on one Local; create one Local per goroutine). scratch holds the
	// per-worker pencil buffers for stage B, allocated once so a warm Run
	// performs no heap allocations. slabBuf and planesBuf are component-
	// major: component c's k slab planes, then component c+1's.
	slabBuf   []complex128
	planesBuf []complex128
	scratch   []pencilScratch

	// Fixed geometry, cached at construction.
	n, k       int // grid edge, sub-domain edge
	ox, oy, oz int // sub-domain low corner

	// Per-run state read by the prebuilt worker funcs below. The funcs
	// are method values bound once at construction: a closure literal in
	// Run would be heap-allocated per call (its captures escape into
	// ParallelForSpanned), which is exactly what the steady-state serving
	// path cannot afford.
	runIn  []*grid.Field  // current job's input sub-fields, one per component
	bStart int            // current stage-B batch offset
	ec     fft.FirstError // per-run first-error collector
	fnA    func(w, i int)
	fnB    func(w, i int)

	// Array backing for the one-element slices RunInto hands RunComponents,
	// so the scalar warm path allocates nothing.
	in1  [1]*grid.Field
	out1 [1]*sample.Compressed

	// Per-stage latency histograms, cached at construction so Run does no
	// registry lookups (nil when cfg.Trace is nil; Observe is nil-safe).
	hA, hB, hC *obs.Histogram
}

type gatherPoint struct {
	x, y   int32
	sample int32
}

// pencilScratch is one worker's reusable length-n line buffers: one
// spectrum line per component, and one inverse line shared by all.
type pencilScratch struct {
	spec [][]complex128
	inv  []complex128
}

// NewLocal builds a local-convolution pipeline for sub-domain box sub of
// an N³ grid (dim), with the sampling octree tree (typically from
// sample.Policy) and the frequency-domain callback pw. The transform plans
// are built privately; use PlanSet.NewLocal to share them across pipelines
// on the same grid.
func NewLocal(dim grid.Dim3, sub grid.Box, tree *octree.Tree, pw Pointwise, cfg Config) (*Local, error) {
	ps, err := NewPlanSet(dim, cfg.Workers)
	if err != nil {
		return nil, err
	}
	return ps.NewLocal(sub, tree, pw, cfg)
}

// NewLocalComponents builds a pipeline that carries comps component fields
// of one sub-domain box through the shared plans together; pw sees all
// comps spectrum lines of a pencil at once. cfg must resolve to the set's
// effective worker count.
func (ps *PlanSet) NewLocalComponents(sub grid.Box, tree *octree.Tree, comps int, pw Pointwise, cfg Config) (*Local, error) {
	if fft.Workers(cfg.Workers) != ps.workers {
		return nil, fmt.Errorf("conv: cfg workers %d do not match plan set workers %d",
			fft.Workers(cfg.Workers), ps.workers)
	}
	if comps < 1 {
		return nil, fmt.Errorf("conv: component count %d must be ≥ 1", comps)
	}
	dim := ps.dim
	if dim.Nx != dim.Ny || dim.Ny != dim.Nz {
		return nil, fmt.Errorf("conv: grid %v must be cubic", dim)
	}
	if tree.Dim != dim {
		return nil, fmt.Errorf("conv: tree dims %v != grid dims %v", tree.Dim, dim)
	}
	if !dim.Bounds().ContainsBox(sub) {
		return nil, fmt.Errorf("conv: sub-domain %v outside grid %v", sub, dim)
	}
	s := sub.Size()
	if s[0] != s[1] || s[1] != s[2] {
		return nil, fmt.Errorf("conv: sub-domain %v must be cubic", sub)
	}
	n := dim.Nx
	k := s[0]
	if k < 1 {
		return nil, fmt.Errorf("conv: sub-domain size %d must be ≥ 1", k)
	}
	l := &Local{dim: dim, sub: sub, comps: comps, pw: pw, tree: tree, cfg: cfg}
	l.plan2d = ps.plan2d
	l.planZ = ps.planZ
	l.scratch = make([]pencilScratch, ps.workers)
	for w := range l.scratch {
		lines := make([]complex128, (comps+1)*n)
		spec := make([][]complex128, comps)
		for c := range spec {
			spec[c] = lines[c*n : (c+1)*n : (c+1)*n]
		}
		l.scratch[w] = pencilScratch{spec: spec, inv: lines[comps*n:]}
	}
	l.n, l.k = n, k
	l.ox, l.oy, l.oz = sub.Lo[0], sub.Lo[1], sub.Lo[2]
	l.fnA = l.slabPlane
	l.fnB = l.pencilWorker
	l.buildSampleIndex()
	l.hA = cfg.Trace.Histogram("conv.stage_a_seconds")
	l.hB = cfg.Trace.Histogram("conv.stage_b_seconds")
	l.hC = cfg.Trace.Histogram("conv.stage_c_seconds")
	return l, nil
}

// buildSampleIndex groups the octree's sample points by z plane so the
// inverse stage can gather them directly from each inverse-transformed
// plane — the "compression algorithm applied after each 1D iFFT stage".
func (l *Local) buildSampleIndex() {
	l.zIndex = make(map[int][]gatherPoint)
	l.tree.ForEachSample(func(cell, s, x, y, z int) {
		l.zIndex[z] = append(l.zIndex[z], gatherPoint{x: int32(x), y: int32(y), sample: int32(s)})
	})
	l.keptZ = make([]int, 0, len(l.zIndex))
	for z := range l.zIndex {
		l.keptZ = append(l.keptZ, z)
	}
	// Deterministic order.
	for i := 1; i < len(l.keptZ); i++ {
		for j := i; j > 0 && l.keptZ[j] < l.keptZ[j-1]; j-- {
			l.keptZ[j], l.keptZ[j-1] = l.keptZ[j-1], l.keptZ[j]
		}
	}
	l.zSlot = make(map[int]int, len(l.keptZ))
	for i, z := range l.keptZ {
		l.zSlot[z] = i
	}
}

// Tree returns the sampling octree used by the pipeline.
func (l *Local) Tree() *octree.Tree { return l.tree }

// ReleaseBuffers drops the reused slab and kept-plane buffers (the next
// run reallocates them), so a caller that streams many pipelines one at a
// time holds only one set of live slabs between runs.
func (l *Local) ReleaseBuffers() {
	l.slabBuf = nil
	l.planesBuf = nil
}

// Run convolves the k³ sub-domain field (dimensions equal to the
// sub-domain box) and returns the compressed result plus footprint stats.
func (l *Local) Run(subField *grid.Field) (*sample.Compressed, Stats, error) {
	return l.RunInto(subField, nil)
}

// RunInto is Run with an optional caller-provided output arena: when out
// was built for this pipeline's tree (same tree, full sample storage), its
// samples are overwritten in place and no output allocation happens — the
// steady-state path of a serving engine recycling result buffers. Any
// other out (nil included) falls back to a fresh allocation. It is the
// one-component case of RunComponents.
func (l *Local) RunInto(subField *grid.Field, out *sample.Compressed) (*sample.Compressed, Stats, error) {
	if l.comps != 1 {
		return nil, Stats{}, fmt.Errorf("conv: RunInto on a %d-component pipeline (use RunComponents)", l.comps)
	}
	l.in1[0], l.out1[0] = subField, out
	st, err := l.RunComponents(l.in1[:], l.out1[:])
	out = l.out1[0]
	l.in1[0], l.out1[0] = nil, nil
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// RunComponents convolves the pipeline's C component fields of one
// sub-domain together: in[c] is component c's k³ field and outs[c] receives
// its compressed result. Each outs[c] is recycled under RunInto's rule and
// replaced by a fresh allocation otherwise, so a caller that passes the
// same outs back run after run allocates nothing.
func (l *Local) RunComponents(in []*grid.Field, outs []*sample.Compressed) (Stats, error) {
	var st Stats
	if len(in) != l.comps || len(outs) != l.comps {
		return st, fmt.Errorf("conv: %d inputs and %d outputs for a %d-component pipeline", len(in), len(outs), l.comps)
	}
	s := l.sub.Size()
	for _, f := range in {
		if (grid.Dim3{Nx: s[0], Ny: s[1], Nz: s[2]}) != f.Dim {
			return st, fmt.Errorf("conv: sub field %v does not match box %v", f.Dim, l.sub)
		}
	}
	n, k, comps := l.n, l.k, l.comps
	l.runIn = in
	l.ec.Reset()
	run := l.cfg.Trace.Start("conv.run")
	defer run.End()

	// Stage A — forward 2D transforms of the k sub-domain slices into the
	// N×N×k slab ("the small domain undergoes a 2D transform to a slab").
	// The buffer is reused across runs and must be zeroed: only the k×k
	// block of each plane is written before the full-plane transform.
	tA := time.Now()
	spanA := run.Start("conv.stageA")
	if len(l.slabBuf) != comps*n*n*k {
		l.slabBuf = make([]complex128, comps*n*n*k)
	} else {
		for i := range l.slabBuf {
			l.slabBuf[i] = 0
		}
	}
	workers := fft.Workers(l.cfg.Workers)
	fft.ParallelForSpanned(spanA, "conv.stageA.worker", comps*k, workers, l.fnA)
	l.runIn = nil // input is only read in stage A; don't retain it
	spanA.End()
	if err := l.ec.Err(); err != nil {
		return st, err
	}
	st.StageA = time.Since(tA)
	l.hA.Observe(st.StageA)
	st.SlabBytes = 16 * comps * n * n * k

	// Stage B — batched 1D z transforms of the N² pencils with the
	// pointwise callback, inverse z transform, keeping only sampled z
	// planes ("the slab is then transformed in a batch fashion by taking
	// 1D transforms of B pencils at a time in the z-dimension").
	tB := time.Now()
	spanB := run.Start("conv.stageB")
	nz := len(l.keptZ)
	if len(l.planesBuf) != comps*n*n*nz {
		l.planesBuf = make([]complex128, comps*n*n*nz)
	}
	st.PlanesBytes = 16 * comps * n * n * nz
	st.KeptZPlanes = nz
	st.PencilCount = n * n
	batch := l.cfg.BatchB
	if batch <= 0 || batch > n*n {
		batch = n * n
	}
	for start := 0; start < n*n; start += batch {
		end := start + batch
		if end > n*n {
			end = n * n
		}
		l.bStart = start
		fft.ParallelForSpanned(spanB, "conv.stageB.worker", end-start, workers, l.fnB)
		if err := l.ec.Err(); err != nil {
			spanB.End()
			return st, err
		}
	}
	spanB.End()
	st.StageB = time.Since(tB)
	l.hB.Observe(st.StageB)

	// Stage C — inverse 2D transform of each kept plane, then gather the
	// octree samples (the full 3D result is never materialized). Every
	// sample slot is rewritten below, so a recycled output needs no zeroing.
	tC := time.Now()
	spanC := run.Start("conv.stageC")
	for c, out := range outs {
		if out == nil || out.Tree != l.tree || len(out.Samples) != l.tree.SampleCount() {
			out = sample.NewCompressed(l.tree)
			outs[c] = out
		}
		for slot, z := range l.keptZ {
			plane := l.planesBuf[(c*nz+slot)*n*n : (c*nz+slot+1)*n*n]
			if err := l.plan2d.InversePlane(plane); err != nil {
				spanC.End()
				return st, err
			}
			for _, g := range l.zIndex[z] {
				out.Samples[g.sample] = real(plane[int(g.y)*n+int(g.x)])
			}
		}
		st.SampleCount += len(out.Samples)
		st.SampleBytes += out.MemoryBytes()
	}
	st.ModelBytes = 8 * comps * n * n * k
	st.PeakBytes = st.SlabBytes + st.PlanesBytes + st.SampleBytes
	st.Compression = outs[0].CompressionRatio()
	spanC.End()
	st.StageC = time.Since(tC)
	l.hC.Observe(st.StageC)
	if tr := l.cfg.Trace; tr != nil {
		tr.Counter("conv.pencils").Add(int64(st.PencilCount))
		tr.Counter("conv.samples").Add(int64(st.SampleCount))
		tr.Counter("conv.sample_bytes").Add(int64(st.SampleBytes))
		// FLOP model, per component: stage A does k 2D plane transforms (n
		// lines per axis), stage B two length-n transforms per pencil, stage
		// C one inverse 2D transform per kept plane.
		perPlane2D := 2 * int64(n) * obs.FFTFlops(n)
		tr.Counter("conv.flops_model").Add(int64(comps) * (int64(k)*perPlane2D +
			int64(st.PencilCount)*2*obs.FFTFlops(n) +
			int64(st.KeptZPlanes)*perPlane2D))
		tr.Gauge("conv.peak_bytes").Max(int64(st.PeakBytes))
	}
	return st, nil
}

// slabPlane is the stage-A worker: scatter slice i%k of component i/k
// (read from l.runIn) into its zero plane and 2D-transform it.
func (l *Local) slabPlane(w, i int) {
	if l.ec.Failed() {
		return
	}
	n, k, ox, oy := l.n, l.k, l.ox, l.oy
	in, zi := l.runIn[i/k], i%k
	plane := l.slabBuf[i*n*n : (i+1)*n*n]
	for yy := 0; yy < k; yy++ {
		for xx := 0; xx < k; xx++ {
			plane[(oy+yy)*n+(ox+xx)] = complex(in.At(xx, yy, zi), 0)
		}
	}
	if err := l.plan2d.ForwardPlane(plane); err != nil {
		l.ec.Record(err)
	}
}

// pencilWorker is the stage-B worker: for every component gather one
// (x, y) pencil's k slab values and forward z transform; one pointwise
// callback over all the lines; then inverse z transform each and scatter
// the kept planes.
func (l *Local) pencilWorker(w, i int) {
	if l.ec.Failed() {
		return
	}
	n, k := l.n, l.k
	p := l.bStart + i
	sc := &l.scratch[w]
	// Gather the k slab values of this pencil into a zero line at
	// [oz, oz+k), then forward z transform.
	for c, line := range sc.spec {
		for j := range line {
			line[j] = 0
		}
		slab := l.slabBuf[c*k*n*n:]
		for zi := 0; zi < k; zi++ {
			line[l.oz+zi] = slab[zi*n*n+p]
		}
		if err := l.planZ.Forward(line, line); err != nil {
			l.ec.Record(err)
			return
		}
	}
	// Pointwise kernel multiply — the cuFFT-callback stage.
	l.pw(p%n, p/n, sc.spec)
	// Inverse z transform; scatter only the sampled planes.
	nz := len(l.keptZ)
	for c, line := range sc.spec {
		if err := l.planZ.Inverse(sc.inv, line); err != nil {
			l.ec.Record(err)
			return
		}
		planes := l.planesBuf[c*nz*n*n:]
		for slot, z := range l.keptZ {
			planes[slot*n*n+p] = sc.inv[z]
		}
	}
}
