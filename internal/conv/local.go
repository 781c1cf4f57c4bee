package conv

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
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
// FFTX sketch (Fig. 5). It is called once per tile of fft.Tile z pencils of
// adjacent kx at one ky, the paper's "B pencils at a time": tile[c] is
// component c's tile, N rows of fft.Tile values, row kz holding the
// forward-transformed pencils (kx0, ky) … (kx0+Tile−1, ky) at kz, pencil j
// at tile[c][Tile·kz+j], rewritten in place. Seeing every component of a
// frequency at once is what lets a tensor kernel (MASSIF's Γ̂) couple them;
// a scalar kernel scales each component alike. A caller may run pencils it
// does not need as padding — Local's past kx = N/2 when Tile does not
// divide N/2+1, kx ≥ N at most — and drops what the callback does to them;
// a callback may leave pencils kx ≥ N alone. Calls for different tiles run
// concurrently.
//
// The input is real, so the pipeline carries only the half spectrum
// kx ∈ [0, N/2] and rebuilds the rest by Hermitian symmetry. That is only
// right for a callback that keeps the symmetry — applied at −k to the
// conjugate of what it sees at k it must return the conjugate: a real
// spectrum even in ξ, or Γ̂. A run calls it with kx0 a multiple of Tile
// only, but it must be defined for every index and any kx0: construction
// probes mirrored pencils and refuses anything else with ErrNotHermitian.
type Pointwise func(kx0, ky int, tile [][]complex128)

// ErrNotHermitian is returned (wrapped with the offending index) by the
// Local constructors for a callback the half-spectrum pipeline would
// silently get wrong.
var ErrNotHermitian = errors.New("conv: pointwise callback is not Hermitian")

// KernelPointwise adapts a scalar kernel to a Pointwise callback.
// Separable kernels (green.Separable) get a fast path: three per-axis
// tables are precomputed once, so the hot tile loop multiplies table
// entries instead of evaluating the transcendental Hat per point: the
// (kx, ky) product once per pencil, and then fft.ScaleTile (an AVX twin
// where the CPU has one) scales each component's tile by it and the kz
// table in one call. Both paths scale the real and imaginary parts by the
// real kernel value: two multiplies, where a complex multiply by
// complex(r, 0) takes four and two adds.
func KernelPointwise(d grid.Dim3, k green.Kernel) Pointwise {
	if s, ok := k.(green.Separable); ok {
		tx := make([]float64, d.Nx+fft.Tile-1) // pencils kx ≥ N read a zero
		for kx := range d.Nx {
			tx[kx] = s.AxisHat(d.Nx, kx)
		}
		ty := make([]float64, d.Ny)
		for ky := range ty {
			ty[ky] = s.AxisHat(d.Ny, ky)
		}
		tz := make([]float64, d.Nz)
		for kz := range tz {
			tz[kz] = s.AxisHat(d.Nz, kz)
		}
		return func(kx0, ky int, tile [][]complex128) {
			var txy [fft.Tile]float64
			for j := range txy {
				txy[j] = tx[kx0+j] * ty[ky]
			}
			for _, t := range tile {
				fft.ScaleTile(t, txy, tz)
			}
		}
	}
	return func(kx0, ky int, tile [][]complex128) {
		pencils := min(fft.Tile, d.Nx-kx0)
		for kz := range d.Nz {
			for j := range pencils {
				r := k.Hat(d, kx0+j, ky, kz)
				for _, t := range tile {
					v := t[fft.Tile*kz+j]
					t[fft.Tile*kz+j] = complex(real(v)*r, imag(v)*r)
				}
			}
		}
	}
}

// Config tunes the local pipeline.
type Config struct {
	Workers int // goroutines for each stage's parallel loop (≤0: GOMAXPROCS)

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
// cover all C components: that run's own need, not its Runner's capacity.
type Stats struct {
	SlabBytes   int // x spectra, C×k×k×H complex, H = N/2+1 rounded up to fft.Tile: stage A's output, stage B's input
	PlanesBytes int // kept rows, C×R×H complex, R = rows of the kept z planes that carry a sample
	SampleBytes int // compressed outputs (samples + octree metadata)
	PeakBytes   int // all of the above plus the per-worker kx blocks: everything a run holds at once
	ModelBytes  int // the paper's 8·N²·k back-of-envelope figure, times C
	KeptZPlanes int
	PencilCount int // z pencils of one component's half spectrum, (N/2+1)·N
	SampleCount int
	Compression float64 // dense result bytes / compressed bytes

	// Per-stage wall time, measured whether or not a Trace is attached, so
	// job timelines can attribute compute latency to stages A/B/C.
	StageA time.Duration // forward x transforms (real rows, two per transform) into the x spectra
	StageB time.Duration // per fft.Tile kx: forward y, z pencils + pointwise, inverse y of the kept planes
	StageC time.Duration // inverse x of the kept rows + octree gather
}

// Local performs the paper's domain-local convolution of one k³ sub-domain
// against a full-grid kernel: the dense N³ result is never materialized;
// the output is the octree-compressed sampling of the full-grid circular
// convolution. All transforms are local — no data leaves the worker until
// the compressed samples are exchanged in the accumulation step. A pipeline
// carries C ≥ 1 component fields through the stages together (C = 1 for a
// scalar kernel, six Voigt components for MASSIF's Γ̂), coupled only inside
// the Pointwise callback.
//
// It carries the half spectrum kx ∈ [0, h), h = N/2+1, fft.Tile adjacent
// kx at a time, one per lane of every tile transform (fft.Plan.TileForward,
// TileInverse; kx ≥ h are padding): stage B takes them through the y, z and
// inverse y transforms in a per-worker block that stays in cache and keeps
// only the rows stage C samples, so neither the h×N×k slab nor a kept z
// plane is ever held whole (kxBlock). Stage C inverts fft.Tile packed row
// pairs per tile transform (xTile).
// A Local is the placed box, never written by a run: goroutines, each on
// its own Runner, may run one Local at once.
type Local struct {
	ps    *PlanSet
	sub   grid.Box
	comps int
	pw    Pointwise
	tree  *octree.Tree
	cfg   Config
	plan  *fft.Plan
	perm  []int32 // plan.Perm(): where every copy into or out of a line puts index i

	// Sampling index, a geometry placed at the box (Local.place): the kept
	// z planes in ascending order, the rows that carry a sample (by z, then
	// y; kept plane slot's are rows[rowOff[slot]:rowOff[slot+1]]), both
	// stored at their positions through perm, and each row's gather points,
	// shared with the geometry, whose frame x xpos takes to a line position.
	// pairs lists stage C's row pairs, fft.Tile per tile transform.
	keptZ    []int32
	rows     []sampleRow
	rowOff   []int
	gather   []gatherPoint
	xpos     []int32
	rowPairs int // Σ over kept planes of ⌈rows/2⌉: stage C's x transforms
	pairs    []rowPair

	yIn, zIn, zOut, xAll fft.Rows   // the tile transforms' row maps (tileRows)
	yOut                 []fft.Rows // one per kept plane

	// Fixed geometry, cached at construction.
	n, h, k    int // grid edge, half-spectrum width n/2+1, sub-domain edge
	hp         int // h rounded up to fft.Tile: kx per row, padding lanes included
	ox, oy, oz int // sub-domain low corner
	bl         int // tiles per component of a kx block: max(k, kept planes)

	// Per-stage latency histograms, cached at construction so a run does no
	// registry lookups (nil when cfg.Trace is nil; Observe is nil-safe).
	hA, hB, hC *obs.Histogram

	own *Runner // Run, RunInto and RunComponents's runner, built on first use
}

// Runner is one goroutine's working set for its plan set's Locals, run one
// at a time: per-worker tiles and line, the run in progress, and one buffer
// (per-worker kx blocks, x spectra, kept rows) grown to the largest
// pipeline run, so a goroutine holds one pipeline's memory for all its
// boxes. The buffer is never cleared: the stages write every element before
// reading it (stage A the x spectra's padding lanes too), and the blocks'
// pad rows are never read.
type Runner struct {
	ps      *PlanSet
	buf     []complex128
	scratch []tileScratch // one per worker

	// The run in progress, read by the stage funcs below: its Local, its
	// buffer's parts, its inputs (stage A) and outputs (stage C). The funcs
	// are bound once at construction: a closure literal in Run would be
	// heap-allocated per call (its captures escape into
	// ParallelForSpanned), which is exactly what the steady-state serving
	// path cannot afford.
	l      *Local
	blocks []complex128 // per worker: [c][tile] of bl tiles at stride Tile·N+blockPad
	xspec  []complex128 // [c][z][y][kx]: stage A's x transforms, hp per row
	kept   []complex128 // [c][r][kx]: row r of rows after the inverse y transform, hp per row
	in     []*grid.Field
	outs   []*sample.Compressed
	ec     fft.FirstError
	fnA    func(w, i int)
	fnB    func(w, i int)
	fnC    func(w, i int)

	// Array backing for the one-element slices Local.RunInto hands
	// RunComponents, so the scalar warm path allocates nothing.
	in1  [1]*grid.Field
	out1 [1]*sample.Compressed
}

// sampleRow is one row of a kept plane, at column position y, and its
// gather points, gather[lo:hi].
type sampleRow struct {
	y      int32
	lo, hi int32
}

// gatherPoint is one sample, at frame x (line position xpos[x]).
type gatherPoint struct {
	x      int32
	sample int32
}

// rowPair is the two kept rows stage C packs into one x line, b == a for a
// plane's unpaired last row.
type rowPair struct{ a, b int32 }

// blockPad pads a kx block's tile stride past Tile·N by one row, so that at
// a power-of-two N the rows a z tile reads, one from each slice's y tile,
// do not all map to one cache set. The pad row is never read or written.
const blockPad = fft.Tile

// tileScratch is one worker's tiles, one per component of the widest run
// so far, and one work line of fft.Tile·N: stage A transforms in its first
// N, and a tile transform uses it on the line path (fft.Plan.TileForward).
// Stage C builds its tiles in tile[0].
type tileScratch struct {
	tile [][]complex128
	line []complex128
}

// NewRunner returns a working set for the set's pipelines, to be used by one
// goroutine at a time.
func (ps *PlanSet) NewRunner() *Runner {
	r := &Runner{ps: ps, scratch: make([]tileScratch, ps.workers)}
	r.fnA = r.recorded(r.xSlice)
	r.fnB = r.recorded(r.kxBlock)
	r.fnC = r.recorded(r.xTile)
	return r
}

// fit gives every worker comps tiles, growing the scratch on a run with
// more components than any before.
func (r *Runner) fit(comps int) {
	if len(r.scratch[0].tile) >= comps {
		return
	}
	n := r.ps.dim.Nx
	for w := range r.scratch {
		lines := make([]complex128, fft.Tile*(comps+1)*n)
		tile := make([][]complex128, comps)
		for c := range tile {
			tile[c] = lines[fft.Tile*c*n : fft.Tile*(c+1)*n : fft.Tile*(c+1)*n]
		}
		r.scratch[w] = tileScratch{tile, lines[fft.Tile*comps*n:]}
	}
}

// NewLocal builds a local-convolution pipeline for sub-domain box sub of
// an N³ grid (dim), with the sampling octree tree (typically from
// sample.Policy) and the frequency-domain callback pw. The transform plan
// is built privately; use PlanSet.NewLocal to share it across pipelines
// on the same grid, and PlanSet.NewPolicyLocal to share the sampling index
// too.
func NewLocal(dim grid.Dim3, sub grid.Box, tree *octree.Tree, pw Pointwise, cfg Config) (*Local, error) {
	ps, err := NewPlanSet(dim, cfg.Workers)
	if err != nil {
		return nil, err
	}
	return ps.NewLocal(sub, tree, 1, pw, cfg)
}

// NewLocal builds a pipeline on the shared plan that carries comps component
// fields of one sub-domain box together; pw sees all comps component tiles
// of four pencils at once and must pass the Hermitian probe
// (ErrNotHermitian otherwise). cfg must resolve to the set's effective
// worker count. The sampling index is built from tree in sub's frame.
func (ps *PlanSet) NewLocal(sub grid.Box, tree *octree.Tree, comps int, pw Pointwise, cfg Config) (*Local, error) {
	if tree.Dim != ps.dim {
		return nil, fmt.Errorf("conv: tree dims %v != grid dims %v", tree.Dim, ps.dim)
	}
	if err := ps.check(sub, comps, cfg); err != nil {
		return nil, err
	}
	return ps.build(newGeometry(tree, sub.Lo), sub, comps, pw, cfg)
}

// NewPolicyLocal is NewLocal for box p.Sub sampled by policy p's tree. Where
// that tree is the translate of the policy's origin box tree — every box of
// a regular decomposition at N/k ≤ 4 — the pipeline is placed from the
// origin box's geometry, built once per plan set, and costs O(N + rows +
// cells); its tree lists the origin tree's cells, moved, in their order.
// Any other box gets its own tree's geometry. Either way its samples are
// those of NewLocal with p.Tree, bit for bit.
func (ps *PlanSet) NewPolicyLocal(p sample.Policy, comps int, pw Pointwise, cfg Config) (*Local, error) {
	if err := ps.check(p.Sub, comps, cfg); err != nil {
		return nil, err
	}
	g, err := ps.policyGeometry(p)
	if err != nil {
		return nil, err
	}
	return ps.build(g, p.Sub, comps, pw, cfg)
}

// check validates a pipeline's shape against the set.
func (ps *PlanSet) check(sub grid.Box, comps int, cfg Config) error {
	if fft.Workers(cfg.Workers) != ps.workers {
		return fmt.Errorf("conv: cfg workers %d do not match plan set workers %d",
			fft.Workers(cfg.Workers), ps.workers)
	}
	if comps < 1 {
		return fmt.Errorf("conv: component count %d must be ≥ 1", comps)
	}
	dim := ps.dim
	if dim.Nx != dim.Ny || dim.Ny != dim.Nz {
		return fmt.Errorf("conv: grid %v must be cubic", dim)
	}
	if !dim.Bounds().ContainsBox(sub) {
		return fmt.Errorf("conv: sub-domain %v outside grid %v", sub, dim)
	}
	s := sub.Size()
	if s[0] != s[1] || s[1] != s[2] {
		return fmt.Errorf("conv: sub-domain %v must be cubic", sub)
	}
	if s[0] < 1 {
		return fmt.Errorf("conv: sub-domain size %d must be ≥ 1", s[0])
	}
	return nil
}

// build is every constructor's last step: the pipeline for box sub, placed
// from geometry g.
func (ps *PlanSet) build(g *geometry, sub grid.Box, comps int, pw Pointwise, cfg Config) (*Local, error) {
	n, k := ps.dim.Nx, sub.Size()[0]
	if err := probeHermitian(n, comps, pw); err != nil {
		return nil, err
	}
	l := &Local{ps: ps, sub: sub, comps: comps, pw: pw, cfg: cfg, plan: ps.plan, perm: ps.plan.Perm()}
	l.n, l.h, l.k = n, n/2+1, k
	l.hp = (l.h + fft.Tile - 1) / fft.Tile * fft.Tile
	l.ox, l.oy, l.oz = sub.Lo[0], sub.Lo[1], sub.Lo[2]
	l.place(g)
	l.bl = max(k, len(l.keptZ))
	if err := l.tileRows(); err != nil {
		return nil, err
	}
	l.hA = cfg.Trace.Histogram("conv.stage_a_seconds")
	l.hB = cfg.Trace.Histogram("conv.stage_b_seconds")
	l.hC = cfg.Trace.Histogram("conv.stage_c_seconds")
	return l, nil
}

// probeHermitian checks, on a handful of (kx, ky) and their negations, that
// pw applied at −k to the conjugate-mirrored pencil returns the conjugate
// mirror of what it returns at k, to 1e-9 of the largest output, both
// measured by the larger of a value's two parts. Probe i puts its pencil in
// lane j = min(i, Tile−1, kx) of a tile at (kx − j, ky), so that the five
// probes cover every lane, and its mirror in lane 0 of an otherwise zero
// tile at (−kx, −ky). The self-conjugate pairs — (0, 0), (N/2, N/2) — test
// the symmetry in kz alone; (N/2, 1) is the mixed-Nyquist case a
// direction-dependent kernel gets wrong unless it zeroes those modes. The
// probe values are a splitmix64 stream, uniform in [−1, 1), seeded alike on
// every call; every lane of a probe tile takes the same line.
func probeHermitian(n, comps int, pw Pointwise) error {
	const T = fft.Tile
	neg := func(i int) int { return (n - i) % n }
	size := func(c complex128) float64 { return max(math.Abs(real(c)), math.Abs(imag(c))) }
	tiles := make([]complex128, 2*comps*T*n)
	a := make([][]complex128, comps)
	b := make([][]complex128, comps)
	for c := range a {
		a[c] = tiles[2*c*T*n : (2*c+1)*T*n]
		b[c] = tiles[(2*c+1)*T*n : (2*c+2)*T*n]
	}
	var seed uint64
	next := func() float64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return float64(int64(z^z>>31)>>11) / (1 << 52)
	}
	for i, p := range [][2]int{{0, 0}, {n / 2, 1 % n}, {n / 2, n / 2}, {1 % n, 2 % n}, {3 % n, n - 1}} {
		kx, ky := p[0], p[1]
		j := min(i, T-1, kx)
		for c := range a {
			clear(b[c])
			for kz := 0; kz < n; kz++ {
				v := complex(next(), next())
				for l := range T {
					a[c][T*kz+l] = v
				}
				b[c][T*neg(kz)] = cmplx.Conj(v)
			}
		}
		pw(kx-j, ky, a)
		pw(neg(kx), neg(ky), b)
		var scale float64
		for c := range a {
			for kz := 0; kz < n; kz++ {
				scale = max(scale, size(a[c][T*kz+j]))
			}
		}
		for c := range a {
			for kz := 0; kz < n; kz++ {
				v, w := b[c][T*kz], a[c][T*neg(kz)+j]
				if d := size(v - cmplx.Conj(w)); !(d <= 1e-9*scale) {
					return fmt.Errorf("conv: component %d at (kx, ky, kz) = (%d, %d, %d) and its negation differ by %.3g of %.3g: %w",
						c, kx, ky, neg(kz), d, scale, ErrNotHermitian)
				}
			}
		}
	}
	return nil
}

// Tree returns the sampling octree used by the pipeline.
func (l *Local) Tree() *octree.Tree { return l.tree }

// Run convolves the k³ sub-domain field (dimensions equal to the
// sub-domain box) and returns the compressed result plus footprint stats.
// Run, RunInto and RunComponents run on a Runner the Local builds on first
// use and keeps: they serve a caller with one box, and like that Runner are
// for one goroutine at a time. A caller with many boxes runs them on one
// Runner per goroutine instead.
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
	r := l.runner()
	r.in1[0], r.out1[0] = subField, out
	st, err := l.RunComponents(r.in1[:], r.out1[:])
	out, r.in1[0], r.out1[0] = r.out1[0], nil, nil
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// RunComponents is Runner.Run of l on the Local's own runner.
func (l *Local) RunComponents(in []*grid.Field, outs []*sample.Compressed) (Stats, error) {
	return l.runner().Run(l, in, outs)
}

func (l *Local) runner() *Runner {
	if l.own == nil {
		l.own = l.ps.NewRunner()
	}
	return l.own
}

// Run convolves pipeline l's C component fields of one sub-domain together:
// in[c] is component c's k³ field and outs[c] receives its compressed
// result. Each outs[c] is recycled under Local.RunInto's rule and replaced
// by a fresh allocation otherwise, so a caller that passes the same outs
// back run after run allocates nothing. l must be of r's plan set.
func (r *Runner) Run(l *Local, in []*grid.Field, outs []*sample.Compressed) (Stats, error) {
	var st Stats
	if l.ps != r.ps {
		return st, errors.New("conv: the pipeline is not of the runner's plan set")
	}
	if len(in) != l.comps || len(outs) != l.comps {
		return st, fmt.Errorf("conv: %d inputs and %d outputs for a %d-component pipeline", len(in), len(outs), l.comps)
	}
	s := l.sub.Size()
	for _, f := range in {
		if (grid.Dim3{Nx: s[0], Ny: s[1], Nz: s[2]}) != f.Dim {
			return st, fmt.Errorf("conv: sub field %v does not match box %v", f.Dim, l.sub)
		}
	}
	n, h, k, comps := l.n, l.h, l.k, l.comps
	r.fit(comps)
	r.l = l
	defer func() { r.l, r.in, r.outs = nil, nil, nil }() // retain no job's data
	r.ec.Reset()
	run := l.cfg.Trace.Start("conv.run")
	defer run.End()

	// Stage A — forward x transforms of the k rows of every sub-domain
	// slice, two real rows per complex transform, into the x spectra.
	tA, spanA := time.Now(), run.Start("conv.stageA")
	nz, hp := len(l.keptZ), l.hp
	xn, kn := comps*k*k*hp, comps*len(l.rows)*hp
	bw := min(len(r.scratch), hp/fft.Tile) // stage-B workers, one block each
	bn := bw * comps * l.bl * (fft.Tile*n + blockPad)
	size := bn + xn + kn
	if cap(r.buf) < size {
		r.buf = make([]complex128, size)
	}
	// The blocks come first: at the start of a large buffer their tile rows
	// are cache-line aligned.
	buf := r.buf[:size]
	r.blocks, r.xspec, r.kept = buf[:bn], buf[bn:bn+xn], buf[bn+xn:]
	st.SlabBytes, st.PlanesBytes = 16*xn, 16*kn
	st.KeptZPlanes, st.PencilCount = nz, h*n
	r.in = in
	var err error
	if st.StageA, err = r.stage(spanA, tA, "conv.stageA.worker", comps*k, r.fnA, l.hA); err != nil {
		return st, err
	}

	// Stage B — per fft.Tile adjacent kx: forward y tiles, the z pencils
	// one tile transform each way per ky with the pointwise callback between
	// ("1D transforms of B pencils at a time in the z-dimension"), inverse y
	// tiles of the kept z planes, the sampled rows kept.
	tB, spanB := time.Now(), run.Start("conv.stageB")
	if st.StageB, err = r.stage(spanB, tB, "conv.stageB.worker", hp/fft.Tile, r.fnB, l.hB); err != nil {
		return st, err
	}

	// Stage C — fft.Tile row pairs per tile transform, the inverse x
	// transform of the kept rows and the octree gather (the full 3D result
	// is never materialized). Every sample slot is rewritten, so a recycled
	// output needs no zeroing.
	tC, spanC := time.Now(), run.Start("conv.stageC")
	for c, out := range outs {
		if out == nil || out.Tree != l.tree || len(out.Samples) != l.tree.SampleCount() {
			out = sample.NewCompressed(l.tree)
			outs[c] = out
		}
		st.SampleCount += len(out.Samples)
		st.SampleBytes += out.MemoryBytes()
	}
	r.outs = outs
	if st.StageC, err = r.stage(spanC, tC, "conv.stageC.worker", comps*len(l.pairs)/fft.Tile, r.fnC, l.hC); err != nil {
		return st, err
	}
	st.ModelBytes = 8 * comps * n * n * k
	st.PeakBytes = 16*size + st.SampleBytes
	st.Compression = outs[0].CompressionRatio()
	if tr := l.cfg.Trace; tr != nil {
		tr.Counter("conv.pencils").Add(int64(st.PencilCount))
		tr.Counter("conv.samples").Add(int64(st.SampleCount))
		tr.Counter("conv.sample_bytes").Add(int64(st.SampleBytes))
		// FLOP model in length-n transforms per component: stage A does
		// ⌈k/2⌉ packed row pairs per slice, stage B k columns, two per
		// pencil and nz kept lines per kx, stage C one per pair of kept rows:
		// the half spectrum's work, the tiles' padding lanes not counted.
		lines := k*((k+1)/2+h) + 2*h*n + nz*h + l.rowPairs
		tr.Counter("conv.flops_model").Add(int64(comps) * int64(lines) * obs.FFTFlops(n))
		tr.Gauge("conv.peak_bytes").Max(int64(st.PeakBytes))
	}
	return st, nil
}

// stage finishes the stage begun at t0 under span: count work items on the
// runner's workers, each worker under span worker. It returns the stage's
// wall time, observed into hist, or the first error a worker recorded.
func (r *Runner) stage(span *obs.Span, t0 time.Time, worker string, count int, fn func(w, i int), hist *obs.Histogram) (time.Duration, error) {
	fft.ParallelForSpanned(span, worker, count, len(r.scratch), fn)
	span.End()
	if err := r.ec.Err(); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	hist.Observe(d)
	return d, nil
}

// recorded adapts a stage worker to fft.ParallelFor: its error goes to the
// run's collector, and once any worker has failed the rest do nothing.
func (r *Runner) recorded(f func(w, i int) error) func(w, i int) {
	return func(w, i int) {
		if !r.ec.Failed() {
			r.ec.Record(f(w, i))
		}
	}
}

// xSlice is the stage-A worker for slice i%k of component i/k (read from
// r.in). The k rows are transformed along x two at a time: rows a, b
// packed as a + i·b go through one complex transform and come apart by
// symmetry, F(a)[kx] = (Z[kx] + conj Z[−kx])/2 and F(b)[kx] =
// (Z[kx] − conj Z[−kx])/2i, written to the rows' x spectra. The packed row
// is placed through perm, so the transform starts without a reorder. Row
// yy's spectrum is row yy of the slice's x spectra, kx ∈ [h, hp) zeroed.
func (r *Runner) xSlice(w, i int) error {
	l := r.l
	n, h, k, hp := l.n, l.h, l.k, l.hp
	rows := r.in[i/k].Data[(i%k)*k*k:][:k*k]
	xs := r.xspec[i*k*hp:][:k*hp]
	line := r.scratch[w].line[:n]
	px := l.perm[l.ox : l.ox+k]
	for yy := 0; yy < k; yy += 2 {
		paired := yy+1 < k
		a := rows[yy*k : (yy+1)*k]
		b := a
		if paired {
			b = rows[(yy+1)*k : (yy+2)*k]
		}
		clear(line)
		for xx, v := range a {
			if paired {
				line[px[xx]] = complex(v, b[xx])
			} else {
				line[px[xx]] = complex(v, 0)
			}
		}
		if err := l.plan.ForwardFromPerm(line); err != nil {
			return err
		}
		xa, xb := xs[yy*hp:][:hp], xs[yy*hp:][:hp] // xb is row yy+1's, when paired
		xa[0] = complex(real(line[0]), 0)
		if paired {
			xb = xs[(yy+1)*hp:][:hp]
			xb[0] = complex(imag(line[0]), 0)
		}
		for kx := 1; kx < h; kx++ {
			zk, zm := line[kx], line[n-kx]
			sum := complex(real(zk)+real(zm), imag(zk)-imag(zm)) // Z[kx] + conj Z[−kx]
			xa[kx] = complex(real(sum)/2, imag(sum)/2)
			if paired {
				dif := complex(real(zk)-real(zm), imag(zk)+imag(zm)) // Z[kx] − conj Z[−kx]
				xb[kx] = complex(imag(dif)/2, -real(dif)/2)
			}
		}
		clear(xa[h:])
		clear(xb[h:])
	}
	return nil
}

// kxBlock is the stage-B worker for kx ∈ [Tile·b, Tile·b+Tile), one lane
// each, in worker w's block of bl tiles per component: tile zi takes the
// forward y transforms of box slice zi (yIn). Then, per ky, one z tile per
// component reads row ky of the box's k slice tiles (zIn), the callback sees
// every component's tile, and the inverse writes kept plane slot's values
// to row ky of tile slot (zOut), which every forward of this ky has read.
// Last, each kept plane's tile is inverse y transformed, its sampled rows
// stored straight into the kept rows (yOut).
func (r *Runner) kxBlock(w, b int) error {
	l := r.l
	n, k, hp, nr := l.n, l.k, l.hp, len(l.rows)
	ts := fft.Tile*n + blockPad
	cs, kx0, sc := l.bl*ts, fft.Tile*b, &r.scratch[w]
	blk, ec := r.blocks[w*l.comps*cs:][:l.comps*cs], &r.ec // a failed tile is recorded in place
	tile := sc.tile[:l.comps]
	for c := range l.comps {
		for zi := range k {
			ec.Record(l.plan.TileForward(blk[c*cs+zi*ts:][:ts-blockPad], r.xspec[(c*k+zi)*k*hp+kx0:], l.yIn, sc.line))
		}
	}
	for ky := range n {
		for c, t := range tile {
			ec.Record(l.plan.TileForward(t, blk[c*cs+fft.Tile*ky:], l.zIn, sc.line))
		}
		l.pw(kx0, ky, tile) // pointwise kernel multiply — the cuFFT-callback stage
		for c, t := range tile {
			ec.Record(l.plan.TileInverse(t, blk[c*cs+fft.Tile*ky:], l.zOut, sc.line))
		}
	}
	for c := range l.comps {
		for slot, to := range l.yOut {
			ec.Record(l.plan.TileInverse(blk[c*cs+slot*ts:][:ts-blockPad], r.kept[c*nr*hp+kx0:], to, sc.line))
		}
	}
	return nil
}

// tileRows builds the tile transforms' row maps, each offset from the
// tile's first lane: yIn, y position i in a slice's x spectra, row y − oy
// where the box holds it; zIn and zOut, in one component's block, slice
// z − oz's tile where the box holds z at position i, and tile slot at kept
// plane slot's position; xAll, row i of a tile at its own place; and
// yOut[slot], in the kept rows, row r at the position of each of the
// plane's rows r.
func (l *Local) tileRows() error {
	n, ts := l.n, int32(fft.Tile*l.n+blockPad)
	at := make([]int32, (4+len(l.keptZ))*n)
	for i := range at {
		at[i] = -1
	}
	for i, v := range l.perm {
		if y := int(v) - l.oy; y >= 0 && y < l.k {
			at[i] = int32(y * l.hp)
		}
		if z := int(v) - l.oz; z >= 0 && z < l.k {
			at[n+i] = int32(z) * ts
		}
		at[3*n+i] = int32(fft.Tile * i)
	}
	for slot, i := range l.keptZ {
		at[2*n+int(i)] = int32(slot) * ts
		for r := l.rowOff[slot]; r < l.rowOff[slot+1]; r++ {
			at[(4+slot)*n+int(l.rows[r].y)] = int32(r * l.hp)
		}
	}
	rows := make([]fft.Rows, len(at)/n)
	for m := range rows {
		var err error
		if rows[m], err = l.plan.Rows(at[m*n : (m+1)*n]); err != nil {
			return err
		}
	}
	l.yIn, l.zIn, l.zOut, l.xAll, l.yOut = rows[0], rows[1], rows[2], rows[3], rows[4:]
	return nil
}

// xTile is the stage-C worker for tile i%m of component i/m, m tiles per
// component: the inverse x transform of fft.Tile row pairs, one per lane.
// Rows a, b with half spectra Â, B̂ are packed as Z = Â + i·B̂, extended to
// the negative kx by Hermitian symmetry with the DC and Nyquist terms taken
// real, so F⁻¹Z = a + i·b; the samples are gathered from the tile, which
// the inverse leaves in perm order, where xpos points.
func (r *Runner) xTile(w, i int) error {
	l := r.l
	n, h, hp, nr := l.n, l.h, l.hp, len(l.rows)
	m := len(l.pairs) / fft.Tile
	c, pairs := i/m, l.pairs[i%m*fft.Tile:][:fft.Tile]
	kept := r.kept[c*nr*hp:][:nr*hp] // row r's value at kx is kept[r*hp+kx]
	out, xpos, t := r.outs[c].Samples, l.xpos, r.scratch[w].tile[0]
	for j, p := range pairs {
		pa, pb := kept[int(p.a)*hp:][:h], kept[int(p.b)*hp:][:h]
		t[j] = complex(real(pa[0]), real(pb[0]))
		for kx := 1; kx < n-h+1; kx++ {
			a, b := pa[kx], pb[kx]
			t[fft.Tile*kx+j] = complex(real(a)-imag(b), imag(a)+real(b))     // Â + i·B̂
			t[fft.Tile*(n-kx)+j] = complex(real(a)+imag(b), real(b)-imag(a)) // conj Â + i·conj B̂
		}
		if n%2 == 0 {
			t[fft.Tile*(n/2)+j] = complex(real(pa[n/2]), real(pb[n/2]))
		}
	}
	if err := l.plan.TileInverse(t, t, l.xAll, r.scratch[w].line); err != nil {
		return err
	}
	for j, p := range pairs {
		// An unpaired last row rides with itself; its imaginary half is
		// not gathered.
		ra := l.rows[p.a]
		for _, g := range l.gather[ra.lo:ra.hi] {
			out[g.sample] = real(t[fft.Tile*int(xpos[g.x])+j])
		}
		if p.b != p.a {
			rb := l.rows[p.b]
			for _, g := range l.gather[rb.lo:rb.hi] {
				out[g.sample] = imag(t[fft.Tile*int(xpos[g.x])+j])
			}
		}
	}
	return nil
}
