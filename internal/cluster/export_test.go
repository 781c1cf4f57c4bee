package cluster

// DeadWorkers returns the sorted ranks declared dead so far.
func (c *Cluster) DeadWorkers() []int {
	var out []int
	for i := range c.dead {
		if c.dead[i].Load() {
			out = append(out, i)
		}
	}
	return out
}

// Broadcast sends data from root to every other live worker (counted as
// P−1 α–β-timed messages); all workers return the payload. A non-root
// worker whose root dies gets a typed FaultError. It is the smallest
// collective over the retrying transport, which the fault matrix runs
// next to the all-to-all and the all-reduce.
func (w *Worker) Broadcast(root int, data []float64) (out []float64, err error) {
	if err := w.crashPoint("broadcast"); err != nil {
		return nil, err
	}
	sp := w.c.opts.Trace.StartTrack("cluster.broadcast", w.ID+1)
	defer func() {
		d := sp.End()
		if err == nil {
			w.c.opts.Flight.Collective(w.ID, "broadcast", int64(8*len(data)), d)
		}
	}()
	if w.ID == root {
		for to := 0; to < w.c.P; to++ {
			if to != root && !w.c.isDead(to) {
				w.sendRaw(to, data, true)
			}
		}
		return data, nil
	}
	if w.c.isDead(root) {
		return nil, &FaultError{Worker: w.ID, Peer: root, Op: "broadcast"}
	}
	return w.recvRaw(root, "broadcast")
}
