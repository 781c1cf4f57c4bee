package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/fleet"
	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs/jobtrace"
	"lowcomm3d/internal/sample"
	"lowcomm3d/internal/serve"
	"lowcomm3d/internal/wire"
)

// Shared by every workload: the paper's sharp Gaussian kernel (§4) and
// far-field rate 16 (§5.4). Every other option is left at its zero value
// wherever the program has a default.
var kernel = green.Gaussian{Sigma: 2}

const farRate = 16

// paperErrBudget is the §5.3 claim: ≤3 % relative L2 error against the
// dense result.
const paperErrBudget = 0.03

// opInfo is what one op returned besides its result: the figures the
// per-layer metrics and the spans are built from.
type opInfo struct {
	stats   conv.Stats    // stage times, peak and sample bytes; zero when the call returns none
	wait    time.Duration // serve.Result.Wait
	traceID uint64        // wire: the server-side job timeline of this op
}

// instance is one set-up of a workload, ready to run ops.
type instance interface {
	// op runs the i-th op and checks its output byte for byte against the
	// first output for the same input.
	op(i int) (opInfo, error)
	// verify compares the outputs against the dense oracle. It runs after
	// the window and after peak RSS is read, so the oracle is in neither.
	verify() (verdict, error)
	close()
}

// verdict is what verification found.
type verdict struct {
	// relErr is ‖results − dense‖₂ / ‖dense‖₂, pooled over the workload's
	// distinct inputs.
	relErr float64
	// exchangeBytes is the compressed bytes that leave the worker per op.
	exchangeBytes float64
}

// pooledErr accumulates the relative L2 error over several fields.
type pooledErr struct{ num, den float64 }

func (p *pooledErr) add(got, want *grid.Field) error {
	if got.Dim != want.Dim {
		return fmt.Errorf("result is %v, oracle %v", got.Dim, want.Dim)
	}
	for i, w := range want.Data {
		d := got.Data[i] - w
		p.num += d * d
		p.den += w * w
	}
	return nil
}

func (p *pooledErr) value() float64 { return math.Sqrt(p.num / p.den) }

type workload struct {
	name string
	why  string
	call string // the public function an op calls, as its span is named

	open    bool    // open loop (seeded arrivals) or closed loop (one caller)
	refEach int     // closed loop: yardstick kernels each side of an op
	ref     refMode // the conditions the yardstick runs under, to match the op's

	// sureOpsPerSec is an op rate the workload reaches on any host this
	// was tried on; the tail percentile is picked from it and the window
	// length, so it does not flip between runs.
	sureOpsPerSec float64

	// errBudget is the largest rel_l2_err that is not a failure.
	errBudget float64

	// inputs generates the workload's distinct inputs from the seed; it is
	// not part of set-up.
	inputs func(seed int64) []*grid.Field

	// setup builds everything the ops need and runs the fixed warm-up ops,
	// one per input. jobs is nil except in the traced half of a traced run.
	setup func(inputs []*grid.Field, jobs *jobtrace.Collector) (instance, error)
}

var workloads = []workload{
	{
		name:          "local-n128-k32",
		why:           "fft+conv+sample do all the work, serve/fleet/wire none: a kernel change must show here, a serving change must not",
		call:          "conv.Local.RunInto",
		refEach:       3,
		sureOpsPerSec: 4.5,
		errBudget:     paperErrBudget,
		inputs:        func(seed int64) []*grid.Field { return boxInputs(seed, localK, 3) },
		setup:         setupLocal,
	},
	{
		name:          "solve-n64-k16",
		why:           "the paper's whole algorithm through fleet.Engine.Solve: 64 same-k boxes placed, batched, run and accumulated on 2 devices",
		call:          "fleet.Engine.Solve",
		refEach:       9, // an op of most of a second: longer bursts see more of the host's states
		ref:           refPair,
		sureOpsPerSec: 0.9,
		errBudget:     paperErrBudget,
		inputs:        func(seed int64) []*grid.Field { return fullInputs(seed, solveN, 2) },
		setup:         setupSolve,
	},
	{
		name:          "wire-closed-n64-k16",
		why:           "one wire.Client.Submit at a time over loopback TCP: wire encode, chunk, CRC, ack and decode are most of the op, the kernel a fifth",
		call:          "wire.Client.Submit",
		refEach:       3,
		ref:           refEachCPU,
		sureOpsPerSec: 6,
		errBudget:     wireErrBudget,
		inputs:        func(seed int64) []*grid.Field { return boxInputs(seed, wireK, servedBoxes) },
		setup:         setupWire,
	},
	{
		name:          "serve-rate150-n32-k8",
		why:           "open-loop arrivals at 150/s on in-process serve.Submit: 2 ms ops make admission, DRR dispatch, placement and wake-ups a visible share",
		call:          "serve.Engine.Submit",
		open:          true,
		sureOpsPerSec: openRate * 0.7,
		errBudget:     serveErrBudget,
		inputs:        func(seed int64) []*grid.Field { return boxInputs(seed, serveK, servedBoxes) },
		setup:         setupServe,
	},
}

// The two single-box serving workloads have no far field at N ≤ 64, so
// the paper's 3 % claim is not theirs. Their budget guards against drift: it
// is the largest error over seeds 1–24 at the commit that added the
// benchmark (0.02195 and 0.03352; the smallest were 0.02047 and 0.03249),
// × 1.10 so that no seed's draw of the modes is over it.
const (
	wireErrBudget  = 0.0241
	serveErrBudget = 0.0369
)

// tailPercentile is the percentile op_tail_ms reports for a window of the
// given length.
func (w workload) tailPercentile(seconds float64) float64 {
	return tailPercentile(int(w.sureOpsPerSec * seconds))
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// boxOracle adds to p the error of a compressed single-box result against
// the dense full-grid convolution of the same box.
func (p *pooledErr) boxOracle(dim grid.Dim3, box grid.Box, in *grid.Field, result *sample.Compressed) error {
	dense, err := conv.BaselineSubdomain(dim, box, in, kernel, 0)
	if err != nil {
		return err
	}
	rec, err := result.Reconstruct()
	if err != nil {
		return err
	}
	return p.add(rec, dense)
}

// diagonalBoxes are count k-cubes along the grid diagonal.
func diagonalBoxes(k, count int) []grid.Box {
	b := make([]grid.Box, count)
	for i := range b {
		b[i] = grid.CubeAt(grid.Point{i * k, i * k, i * k}, k)
	}
	return b
}

func boxInputs(seed int64, k, count int) []*grid.Field {
	rng := rand.New(rand.NewSource(seed))
	in := make([]*grid.Field, count)
	for i := range in {
		in[i] = boxField(rng, k)
	}
	return in
}

func fullInputs(seed int64, n, count int) []*grid.Field {
	rng := rand.New(rand.NewSource(seed))
	in := make([]*grid.Field, count)
	for i := range in {
		in[i] = fullField(rng, n)
	}
	return in
}

// ---- local-n128-k32 ----

type localInst struct {
	dim    grid.Dim3
	box    grid.Box
	l      *conv.Local
	inputs []*grid.Field
	out    *sample.Compressed
	first  [][]float64
	bytes  int
}

const (
	localN = 128
	localK = 32
)

func setupLocal(inputs []*grid.Field, _ *jobtrace.Collector) (instance, error) {
	in := &localInst{dim: grid.Cube(localN), inputs: inputs}
	lo := (localN - localK) / 2
	in.box = grid.CubeAt(grid.Point{lo, lo, lo}, localK)
	tree, err := sample.DefaultPolicy(in.box, farRate).Tree(in.dim)
	if err != nil {
		return nil, err
	}
	in.l, err = conv.NewLocal(in.dim, in.box, tree, conv.KernelPointwise(in.dim, kernel), conv.Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	in.out = sample.NewCompressed(tree)
	in.first = make([][]float64, len(in.inputs))
	for i := range in.inputs { // warm-up: one op per distinct input
		res, st, err := in.l.RunInto(in.inputs[i], in.out)
		if err != nil {
			return nil, err
		}
		in.first[i] = append([]float64(nil), res.Samples...)
		in.bytes = st.SampleBytes
	}
	return in, nil
}

func (in *localInst) op(i int) (opInfo, error) {
	j := i % len(in.inputs)
	res, st, err := in.l.RunInto(in.inputs[j], in.out)
	if err != nil {
		return opInfo{}, err
	}
	if !sameBits(res.Samples, in.first[j]) {
		return opInfo{}, fmt.Errorf("local: output for input %d differs from its first output", j)
	}
	return opInfo{stats: st}, nil
}

func (in *localInst) verify() (verdict, error) {
	var p pooledErr
	for j, f := range in.inputs {
		if err := p.boxOracle(in.dim, in.box, f, &sample.Compressed{Tree: in.l.Tree(), Samples: in.first[j]}); err != nil {
			return verdict{}, err
		}
	}
	return verdict{relErr: p.value(), exchangeBytes: float64(in.bytes)}, nil
}

func (in *localInst) close() {}

// ---- solve-n64-k16 ----

type solveInst struct {
	eng    *fleet.Engine
	inputs []*grid.Field
	first  []*grid.Field
	ops    int // solves since set-up, warm-up included
}

const (
	solveN = 64
	solveK = 16
)

func setupSolve(inputs []*grid.Field, jobs *jobtrace.Collector) (instance, error) {
	in := &solveInst{inputs: inputs}
	var err error
	in.eng, err = fleet.NewEngine(fleet.EngineOptions{
		Fleet: fleet.Options{
			Devices: []*gpu.Device{gpu.V100_32GB(), gpu.V100_32GB()},
			N:       solveN, FarRate: farRate,
		},
		Kernel:  kernel,
		SubSize: solveK,
		Conv:    conv.Config{Workers: 1},
		Jobs:    jobs,
	})
	if err != nil {
		return nil, err
	}
	for _, f := range in.inputs { // warm-up: one solve per distinct input
		out, _, err := in.eng.Solve("bench", f)
		if err != nil {
			in.eng.Close()
			return nil, err
		}
		in.first = append(in.first, out)
		in.ops++
	}
	return in, nil
}

func (in *solveInst) op(i int) (opInfo, error) {
	j := i % len(in.inputs)
	out, st, err := in.eng.Solve("bench", in.inputs[j])
	in.ops++
	if err != nil {
		return opInfo{}, err
	}
	if st.Spilled || st.Jobs != (solveN/solveK)*(solveN/solveK)*(solveN/solveK) {
		return opInfo{}, fmt.Errorf("solve: ran %d jobs (spilled %v), want every box on the fleet", st.Jobs, st.Spilled)
	}
	if !sameBits(out.Data, in.first[j].Data) {
		return opInfo{}, fmt.Errorf("solve: output for input %d differs from its first output", j)
	}
	return opInfo{}, nil
}

func (in *solveInst) verify() (verdict, error) {
	var p pooledErr
	var v verdict
	dc := conv.Decomposed{Kernel: kernel, SubSize: solveK, FarRate: farRate, Cfg: conv.Config{Workers: 1}}
	for j, f := range in.inputs {
		want, st, err := dc.Run(f)
		if err != nil {
			return v, err
		}
		if !sameBits(in.first[j].Data, want.Data) {
			return v, fmt.Errorf("solve: fleet.Engine.Solve output for input %d is not byte-identical to conv.Decomposed.Run", j)
		}
		// Computed, not measured: Solve does not return its boxes' results,
		// and the octrees, so the bytes, do not depend on the field.
		v.exchangeBytes = float64(st.TotalBytes)
		dense, err := conv.Baseline(f, kernel, 0)
		if err != nil {
			return v, err
		}
		if err := p.add(in.first[j], dense); err != nil {
			return v, err
		}
	}
	v.relErr = p.value()
	return v, nil
}

func (in *solveInst) close() { in.eng.Close() }

// ---- the two serving workloads ----

const servedBoxes = 4

// served is what wire-closed and serve-rate150 share: a serve.Engine
// with one worker on one modelled device, servedBoxes boxes with one input
// each, and the in-process Submit result of every box as the reference.
type served struct {
	dim    grid.Dim3
	eng    *serve.Engine
	boxes  []grid.Box
	inputs []*grid.Field
	first  []*sample.Compressed
	bytes  float64 // Stats.SampleBytes, mean over the boxes
}

func newServed(inputs []*grid.Field, n int, opts serve.Options) (*served, error) {
	s := &served{dim: grid.Cube(n), boxes: diagonalBoxes(inputs[0].Dim.Nx, len(inputs)), inputs: inputs}
	opts.Dim, opts.Kernel, opts.FarRate = s.dim, kernel, farRate
	opts.Workers = 1
	opts.Device = gpu.V100_32GB()
	var err error
	if s.eng, err = serve.New(opts); err != nil {
		return nil, err
	}
	for i, b := range s.boxes { // warm-up: plans, pipelines and arenas of every box
		res, err := s.eng.Submit(context.Background(), "warm", b, s.inputs[i])
		if err != nil {
			s.eng.Drain()
			return nil, err
		}
		s.first = append(s.first, &sample.Compressed{Tree: res.Output.Tree, Samples: append([]float64(nil), res.Output.Samples...)})
		s.bytes += float64(res.Stats.SampleBytes) / servedBoxes
		res.Release()
	}
	return s, nil
}

func (s *served) verify() (verdict, error) {
	var p pooledErr
	for i, b := range s.boxes {
		if err := p.boxOracle(s.dim, b, s.inputs[i], s.first[i]); err != nil {
			return verdict{}, err
		}
	}
	return verdict{relErr: p.value(), exchangeBytes: s.bytes}, nil
}

// ---- wire-closed-n64-k16 ----

type wireInst struct {
	*served
	srv    *wire.Server
	client *wire.Client
	socket atomic.Int64 // bytes read and written on the client's connections
	perOp  [servedBoxes][]float64
	ops    int // submits since set-up, warm-up included
}

// countingConn counts the bytes that cross the client's socket.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

const (
	wireN = 64
	wireK = 16
)

func setupWire(inputs []*grid.Field, jobs *jobtrace.Collector) (instance, error) {
	s, err := newServed(inputs, wireN, serve.Options{Jobs: jobs})
	if err != nil {
		return nil, err
	}
	in := &wireInst{served: s}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.eng.Drain()
		return nil, err
	}
	in.srv = wire.NewServer(s.eng, ln, wire.ServerOptions{Jobs: jobs})
	addr := in.srv.Addr().String()
	in.client = wire.NewClient(wire.ClientOptions{Dial: func() (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: c, n: &in.socket}, nil
	}})
	for i := range s.boxes { // warm-up: handshake, then every box once over the wire
		if _, err := in.op(i); err != nil {
			in.close()
			return nil, err
		}
	}
	in.perOp = [servedBoxes][]float64{}
	return in, nil
}

func (in *wireInst) op(i int) (opInfo, error) {
	j := i % len(in.boxes)
	before := in.socket.Load()
	res, err := in.client.Submit(context.Background(), "bench", in.boxes[j], in.inputs[j])
	in.ops++
	if err != nil {
		return opInfo{}, err
	}
	moved := in.socket.Load() - before
	if !sameBits(res.Samples, in.first[j].Samples) {
		return opInfo{}, fmt.Errorf("wire: result for box %d is not byte-identical to the in-process Submit result", j)
	}
	in.perOp[j] = append(in.perOp[j], float64(moved))
	return opInfo{traceID: in.client.LastTraceID()}, nil
}

// verify reports the bytes measured on the socket in place of the
// engine's sample bytes: the mean over the boxes of each box's median op,
// so that a keepalive ping landing inside one op does not make the count
// differ between runs.
func (in *wireInst) verify() (verdict, error) {
	v, err := in.served.verify()
	if err != nil {
		return v, err
	}
	v.exchangeBytes = 0
	for j, b := range in.perOp {
		if len(b) == 0 {
			return v, fmt.Errorf("wire: no op counted for box %d", j)
		}
		v.exchangeBytes += median(b) / servedBoxes
	}
	return v, nil
}

func (in *wireInst) close() {
	in.client.Close()
	in.srv.Drain()
	in.eng.Drain()
}

// ---- serve-rate150-n32-k8 ----

const (
	openRate     = 150        // arrivals per window
	openWindowNs = int64(1e9) // window length on the nominal machine
	openLimitMs  = 20.0       // latency limit counted by ops_per_s
)

var openTenants = []string{"t1", "t2", "t4"}

type serveInst struct{ *served }

const (
	serveN = 32
	serveK = 8
)

func setupServe(inputs []*grid.Field, jobs *jobtrace.Collector) (instance, error) {
	s, err := newServed(inputs, serveN, serve.Options{
		Jobs:          jobs,
		TenantWeights: map[string]int{"t1": 1, "t2": 2, "t4": 4},
	})
	if err != nil {
		return nil, err
	}
	return serveInst{s}, nil
}

// submit runs one open-loop request.
func (in serveInst) submit(a arrival) (opInfo, error) {
	res, err := in.eng.Submit(context.Background(), openTenants[a.tenant], in.boxes[a.box], in.inputs[a.box])
	if err != nil {
		return opInfo{}, err
	}
	defer res.Release()
	if !sameBits(res.Output.Samples, in.first[a.box].Samples) {
		return opInfo{}, fmt.Errorf("serve: result for box %d differs from its first result", a.box)
	}
	return opInfo{stats: res.Stats, wait: res.Wait}, nil
}

// op lets the closed-loop probes reuse the instance.
func (in serveInst) op(i int) (opInfo, error) {
	return in.submit(arrival{tenant: i % len(openTenants), box: i % len(in.boxes)})
}

func (in serveInst) close() { in.eng.Drain() }

func (in *wireInst) submitInProcess(i int) (opInfo, error) {
	j := i % len(in.boxes)
	res, err := in.eng.Submit(context.Background(), "bench", in.boxes[j], in.inputs[j])
	if err != nil {
		return opInfo{}, err
	}
	defer res.Release()
	return opInfo{stats: res.Stats, wait: res.Wait}, nil
}
