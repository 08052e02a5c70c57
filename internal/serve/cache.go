// A concurrency-safe LRU cache for encoded plans, bounded both by entry
// count and by total value bytes. A model-scale plan is about 1–3 KiB of
// binary payload, so the entry cap is the binding limit in production; the
// byte cap is a backstop against a few very large plans. Entries
// carry their insert time so a TTL sweep can expire a slowly-rotating
// working set that the capacity caps would keep forever.

package serve

import (
	"container/list"
	"sync"
	"time"
)

type cacheEntry struct {
	key string
	val CachedPlan
	// at is the entry's LRU stamp: its insert (or refresh) time, or just
	// below the tail's for a warm-up entry. The TTL sweep reads it, and the
	// disk mirror keeps it as the plan file's mtime, so a restore replays
	// entries in stamp order.
	at time.Time
}

// warmStampStep is how far below the tail's stamp a warm-up entry lands: a
// millisecond, so filesystems that keep coarse mtimes still order the files.
const warmStampStep = time.Millisecond

type lruCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64

	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	bytes     int64
	evictions uint64
}

func newLRUCache(maxEntries int, maxBytes int64) *lruCache {
	return &lruCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      map[string]*list.Element{},
	}
}

// get returns the cached value and refreshes its recency. The returned
// plan bytes are shared — callers must not mutate them.
func (c *lruCache) get(key string) (CachedPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		return CachedPlan{}, false
	}
	c.ll.MoveToFront(e)
	return e.Value.(*cacheEntry).val, true
}

// peek returns the cached value without refreshing its recency — for
// version-sequence lookups that must not promote an entry the client never
// asked for.
func (c *lruCache) peek(key string) (CachedPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		return CachedPlan{}, false
	}
	return e.Value.(*cacheEntry).val, true
}

// add inserts (or refreshes) a value stamped with time at, and evicts from
// the LRU tail until both caps hold, reporting whether the value was stored
// and which keys were evicted, so write-through persistence can mirror both
// decisions on disk. A value larger than maxBytes on its own is not cached
// at all — caching it would evict everything else for a single entry.
func (c *lruCache) add(key string, val CachedPlan, at time.Time) (stored bool, evicted []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if val.size() > c.maxBytes {
		return false, nil
	}
	if e, ok := c.items[key]; ok {
		ent := e.Value.(*cacheEntry)
		c.bytes += val.size() - ent.val.size()
		ent.val = val
		ent.at = at
		c.ll.MoveToFront(e)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val, at: at})
		c.bytes += val.size()
	}
	for c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		c.removeElement(tail)
		evicted = append(evicted, tail.Value.(*cacheEntry).key)
	}
	return true, evicted
}

// addTail inserts a value at the LRU tail, below every entry held, or
// replaces a held key's value where it stands, and returns the entry's
// stamp: a new entry's sits warmStampStep below the tail's (now in an empty
// cache), a held one keeps its own. Unlike add it never evicts: it stores
// nothing and reports false when the value does not fit under both caps
// beside what is already held.
func (c *lruCache) addTail(key string, val CachedPlan, now time.Time) (at time.Time, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, held := c.items[key]
	n, grow := c.ll.Len()+1, val.size()
	if held {
		n--
		grow -= e.Value.(*cacheEntry).val.size()
	}
	if n > c.maxEntries || c.bytes+grow > c.maxBytes {
		return time.Time{}, false
	}
	c.bytes += grow
	if held {
		ent := e.Value.(*cacheEntry)
		ent.val = val
		return ent.at, true
	}
	at = now
	if tail := c.ll.Back(); tail != nil {
		at = tail.Value.(*cacheEntry).at.Add(-warmStampStep)
	}
	c.items[key] = c.ll.PushBack(&cacheEntry{key: key, val: val, at: at})
	return at, true
}

// removeElement unlinks one entry; the caller holds c.mu.
func (c *lruCache) removeElement(e *list.Element) {
	ent := e.Value.(*cacheEntry)
	c.ll.Remove(e)
	delete(c.items, ent.key)
	c.bytes -= ent.val.size()
	c.evictions++
}

// sweepExpired evicts every entry whose stamp is before cutoff, returning
// the evicted keys so persistence can delete their files.
func (c *lruCache) sweepExpired(cutoff time.Time) (evicted []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for e := c.ll.Front(); e != nil; e = next {
		next = e.Next()
		ent := e.Value.(*cacheEntry)
		if ent.at.Before(cutoff) {
			c.removeElement(e)
			evicted = append(evicted, ent.key)
		}
	}
	return evicted
}

// entries snapshots the cache in most- to least-recently-used order. The
// values share their byte slices with the cache (immutable by contract), so
// the snapshot is cheap even when a warm-up stream then spends seconds
// writing it to a peer.
func (c *lruCache) entries() []cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cacheEntry, 0, c.ll.Len())
	for e := c.ll.Front(); e != nil; e = e.Next() {
		out = append(out, *e.Value.(*cacheEntry))
	}
	return out
}

// snapshot returns (entries, bytes, evictions) for Stats.
func (c *lruCache) snapshot() (int, int64, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.bytes, c.evictions
}
