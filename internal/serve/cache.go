package serve

import (
	"container/list"
	"sync"

	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
	"lowcomm3d/internal/sample"
)

// pipeline is everything cached for one (sub-domain box, kernel
// generation): the sampling octree and pools of the two per-job mutable
// pieces — conv.Local working state and compressed output arenas — so a
// warm job borrows both and allocates neither.
type pipeline struct {
	key  pipeKey
	box  grid.Box
	tree *octree.Tree
	cfg  conv.Config
	pw   conv.Pointwise

	locals sync.Pool // *conv.Local (no New: construction can fail)
	outs   sync.Pool // *sample.Compressed
}

// local borrows a pipeline, building one over the engine's plan set and
// the pipeline's tree only when the pool is empty, so every pipeline of the
// box shares the tree its output arenas are built for.
func (p *pipeline) local(ps *conv.PlanSet) (*conv.Local, error) {
	if v := p.locals.Get(); v != nil {
		return v.(*conv.Local), nil
	}
	return ps.NewLocal(p.box, p.tree, p.pw, p.cfg)
}

// out borrows an output arena; nil means RunInto allocates a fresh one.
func (p *pipeline) out() *sample.Compressed {
	if v := p.outs.Get(); v != nil {
		return v.(*sample.Compressed)
	}
	return nil
}

// pipeKey identifies one cached pipeline: the sub-domain box plus the
// fingerprint of the kernel generation it bakes in. Keying on the
// fingerprint is the plan-cache invalidation mechanism — after
// Engine.UpdateKernel, lookups carry the new fingerprint, miss every
// stale pipeline, and the old generation ages out of the LRU.
type pipeKey struct {
	box    grid.Box
	kernel uint64
}

// pipeCache is the LRU of ready pipelines, keyed by (box, kernel
// fingerprint) — the engine fixes grid and sampling policy, so those two
// determine the pipeline.
type pipeCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // values are *pipeline
	m   map[pipeKey]*list.Element
}

func newPipeCache(capacity int) *pipeCache {
	return &pipeCache{cap: capacity, ll: list.New(), m: make(map[pipeKey]*list.Element)}
}

// lookup returns the cached pipeline for key, or nil on a miss. It is
// deliberately closure-free: the hit path is the serving hot path and
// must not allocate (a combined get-or-build taking a build func would
// heap-allocate the closure on every call, hits included).
func (c *pipeCache) lookup(key pipeKey) *pipeline {
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
func (c *pipeCache) insert(key pipeKey, build func() (*pipeline, error)) (*pipeline, error) {
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
		delete(c.m, el.Value.(*pipeline).key)
	}
	return p, nil
}

func (c *pipeCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
