package server

import (
	"container/list"
	"encoding/binary"
	"sync"

	"distcover/server/api"
)

// resultCache is a thread-safe LRU cache of solver results keyed by
// instance content hash + option fingerprint. A capacity of 0 disables it.
type resultCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; values are *cacheEntry
	entries  map[string]*list.Element
}

// cacheEntry holds one result. Every cold solve adds an entry, so the
// cover, the one field that grows with the instance, is kept packed: a
// byte or two per id instead of eight.
type cacheEntry struct {
	key    string
	result *api.SolveResult // Cover is nil; see cover
	cover  []byte           // result's Cover as varint deltas between successive ids
	size   int              // len of result's Cover
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// cloneResult deep-copies a result except its Cover, which the caller
// sets. A shallow struct copy is not enough: X and the Congest pointer
// would still alias the original, so a caller mutating a returned result
// (or the result it handed to put) would corrupt the cached entry for
// every future hit.
func cloneResult(res *api.SolveResult) *api.SolveResult {
	cp := *res
	cp.Cover = nil
	cp.X = append([]int64(nil), res.X...)
	if res.Congest != nil {
		congest := *res.Congest
		cp.Congest = &congest
	}
	return &cp
}

// packCover encodes a cover as signed varint deltas between successive
// ids, so a step down in a cover that is not ascending stays as short as
// a step up. Sorted covers mostly step by less than 64, one byte each,
// which is the capacity reserved.
func packCover(cover []int) []byte {
	buf := make([]byte, 0, len(cover))
	prev := 0
	for _, v := range cover {
		buf = binary.AppendVarint(buf, int64(v-prev))
		prev = v
	}
	return buf
}

// unpackCover expands size ids packed by packCover into a fresh slice.
func unpackCover(buf []byte, size int) []int {
	if size == 0 {
		return nil
	}
	cover := make([]int, size)
	prev := 0
	for i := range cover {
		d, n := binary.Varint(buf)
		buf = buf[n:]
		prev += int(d)
		cover[i] = prev
	}
	return cover
}

// get returns a deep copy of the cached result with Cached set, or nil.
func (c *resultCache) get(key string) *api.SolveResult {
	if c.capacity <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	res := cloneResult(e.result)
	res.Cover = unpackCover(e.cover, e.size)
	res.Cached = true
	res.ElapsedMS = 0
	return res
}

// put stores a result, evicting the least recently used entry when full.
// The stored value is deep-copied so later mutations by the caller are
// invisible.
func (c *resultCache) put(key string, res *api.SolveResult) {
	if c.capacity <= 0 || res == nil {
		return
	}
	e := &cacheEntry{key: key, result: cloneResult(res), cover: packCover(res.Cover), size: len(res.Cover)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(e)
	for c.order.Len() > c.capacity {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
	}
}

// len returns the current number of entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
