package serve

import (
	"container/list"
	"sync"

	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/grid"
)

// pipelineCap is the per-box pipeline LRU capacity.
const pipelineCap = 64

// pipelineConfig runs each pipeline on one FFT worker: jobs parallelize
// across the engine's workers instead.
var pipelineConfig = conv.Config{Workers: 1}

// pipeline is everything cached for one sub-domain box: its placed
// conv.Local, which every engine worker runs on its own conv.Runner, and a
// pool of compressed output arenas built from its tree, so a warm job
// borrows an arena and allocates nothing.
type pipeline struct {
	box   grid.Box
	local *conv.Local
	outs  sync.Pool // *sample.Compressed
}

// pipeCache is the LRU of ready pipelines, keyed by sub-domain box — the
// engine fixes grid, kernel and sampling policy, so the box determines the
// pipeline.
type pipeCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // values are *pipeline
	m   map[grid.Box]*list.Element
}

func newPipeCache(capacity int) *pipeCache {
	return &pipeCache{cap: capacity, ll: list.New(), m: make(map[grid.Box]*list.Element)}
}

// lookup returns the cached pipeline for key, or nil on a miss. It is
// deliberately closure-free: the hit path is the serving hot path and
// must not allocate (a combined get-or-build taking a build func would
// heap-allocate the closure on every call, hits included).
func (c *pipeCache) lookup(key grid.Box) *pipeline {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*pipeline)
	}
	return nil
}

// insert builds and caches the pipeline for key on the cold path. The map
// is re-checked under the lock, so two workers missing the same key
// concurrently still share one pipeline.
func (c *pipeCache) insert(key grid.Box, build func() (*pipeline, error)) (*pipeline, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*pipeline), nil
	}
	p, err := build()
	if err != nil {
		return nil, err
	}
	c.m[key] = c.ll.PushFront(p)
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.m, el.Value.(*pipeline).box)
	}
	return p, nil
}
