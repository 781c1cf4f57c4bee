package serve

import (
	"sync"

	"lowcomm3d/internal/gpu"
)

// QueueDepth returns the number of admitted jobs not yet picked up.
func (e *Engine) QueueDepth() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.queued
}

func (c *pipeCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// engineDevices maps each engine testEngine built to its admission
// devices (Options.Devices, or the one Options.Device).
var engineDevices sync.Map // *Engine → []*gpu.Device

// deviceLedger is one admission device's name and reserved bytes.
type deviceLedger struct {
	Name string
	Used int64
}

// FleetStatus reads the ledger of each admission device of an engine
// testEngine built: the gpu.Device ledger is what fleet placement
// reserves a job's footprint on.
func (e *Engine) FleetStatus() []deviceLedger {
	devs, _ := engineDevices.Load(e)
	var out []deviceLedger
	for _, d := range devs.([]*gpu.Device) {
		out = append(out, deviceLedger{Name: d.Name, Used: d.Used()})
	}
	return out
}
