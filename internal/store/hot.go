package store

import (
	"container/list"
	"sync"

	"idonly/internal/engine"
)

// hotCache is the bounded in-memory result LRU in front of the log's
// ReadAt path (WithHotCache). Results are treated as immutable
// everywhere in the repo — the engine hands them out by value and
// nothing writes through the shared slices — so caching the decoded
// value is safe and saves both the disk read and the
// engine.DecodeResult pass on every repeat Get of a hot digest. The
// decoder never retains its input, so a cached value never aliases a
// pooled read buffer.
type hotCache struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

type hotEnt struct {
	key string
	res engine.Result
}

func newHotCache(max int) *hotCache {
	if max <= 0 {
		return nil
	}
	return &hotCache{max: max, ll: list.New(), m: make(map[string]*list.Element, max)}
}

func (c *hotCache) get(key string) (engine.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return engine.Result{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*hotEnt).res, true
}

func (c *hotCache) add(key string, res engine.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*hotEnt).res = res
		return
	}
	c.m[key] = c.ll.PushFront(&hotEnt{key: key, res: res})
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.m, back.Value.(*hotEnt).key)
	}
}

// remove drops the key if cached — compaction calls it for every
// evicted record so the memory tier can never serve a digest the log
// no longer holds.
func (c *hotCache) remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.Remove(el)
		delete(c.m, key)
	}
}

func (c *hotCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
