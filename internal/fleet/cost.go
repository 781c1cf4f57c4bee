package fleet

import (
	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/gpu"
)

// CostModel prices a job's placement on a device in modeled seconds. It
// composes the three terms the paper's experiments separate: the α–β
// transfer time of moving the sub-domain in and the Eq. 6 compressed
// samples out (Eq. 2, priced per link class — NVLink inside a box,
// InfiniBand across boxes), the calibrated roofline compute time of the
// local pipeline (Table 3's model), and the queue-backlog wait already
// committed to the device.
type CostModel struct {
	Perf      gpu.PerfModel
	NVLink    cluster.Params // intra-box link
	IB        cluster.Params // cross-box link
	BatchDial int            // §5.4 B: pencils per launch (≤0: 1024)

	// HealthPenalty multiplies the full placement cost of a device the
	// health monitor does not fully trust: Suspect and Probation devices
	// on the reservation-only Place path, and freshly-readmitted devices
	// for HealthOptions.ReadmitPenalty after their probe streak. The
	// penalty makes such devices look expensive rather than merely
	// admissible — a proven-Healthy identical peer always wins — while
	// still letting them absorb load when every trusted device is
	// saturated (≤0: 4).
	HealthPenalty float64
}

func (m CostModel) withDefaults() CostModel {
	if m.Perf == (gpu.PerfModel{}) {
		m.Perf = gpu.DefaultPerf()
	}
	if m.NVLink == (cluster.Params{}) {
		m.NVLink = DefaultNVLink()
	}
	if m.IB == (cluster.Params{}) {
		m.IB = DefaultIB()
	}
	if m.BatchDial <= 0 {
		m.BatchDial = 1024
	}
	if m.HealthPenalty <= 0 {
		m.HealthPenalty = 4
	}
	return m
}

// TransferSeconds is the α–β time to move one k³ job's data to a device
// and its compressed result back: the 8·k³ sub-domain in, the Eq. 6
// sample bytes (cluster.TOursBytes) out, each as one message on the
// link class the placement crosses.
func (m CostModel) TransferSeconds(n, k, far int, crossBox bool) float64 {
	link := m.NVLink
	if crossBox {
		link = m.IB
	}
	in := 8 * int64(k) * int64(k) * int64(k)
	out := cluster.TOursBytes(n, k, far)
	return link.MessageTime(int(in)) + link.MessageTime(int(out))
}

// ComputeSeconds is the calibrated per-job pipeline time on a device
// (gpu.PerfModel's Table 3 model at the configured batch dial).
func (m CostModel) ComputeSeconds(n, k, far int) (float64, error) {
	return m.Perf.GPULocalConvSeconds(n, k, far, m.BatchDial)
}

// PlacementSeconds is the full placement cost of one job on one device:
// transfer + compute + the backlog already queued or running there,
// priced at the device's smoothed job duration. Lower is better; the
// scheduler picks the admissible minimum (ties break toward the lower
// device index, keeping placement deterministic).
func (m CostModel) PlacementSeconds(n, k, far int, crossBox bool, backlog int, ewmaSec float64) (float64, error) {
	comp, err := m.ComputeSeconds(n, k, far)
	if err != nil {
		return 0, err
	}
	return m.TransferSeconds(n, k, far, crossBox) + comp + float64(backlog)*ewmaSec, nil
}
