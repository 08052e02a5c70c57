// The daemon's plan store: the bounded in-memory LRU (cache.go) with its
// optional write-through disk mirror (persist.go), and the version and ETag
// metadata every stored plan carries. serve.go handles the wire protocol;
// the miss path and replication intake write through Put, warm-up through
// Warm; the warm-up stream a node serves, donor lookup and the replan scan
// read Range; Server.Stats reads Stats.

package serve

import (
	"fmt"
	"hash/fnv"
	"time"
)

// CachedPlan is one stored plan: its binary payload plus the response
// metadata served with it. The byte slice is shared between callers and must
// be treated as immutable.
type CachedPlan struct {
	Bin []byte // WriteProgramBinary payload, the body of every plan answer
	// Version counts how many times this key's content has been replaced on
	// its owning node — 1 on first synthesis, bumped by each background
	// replan. Replicas copy the owner's version verbatim, so the number is
	// consistent fleet-wide (monotonic per key as long as the entry lives).
	Version uint64
	// ETag is the strong entity tag served with the plan and matched against
	// If-None-Match: a quoted hash of the plan bytes. Content-derived, not
	// version-derived, so a replan that lands on byte-identical output keeps
	// warm clients' tags valid. The store derives it on every Put and
	// restore; a tag supplied by the caller is never trusted.
	ETag string
	// src is what a locally synthesized plan was planned from — its donor
	// and replan record (telemetry.go); nil on replicated, warmed-up and
	// restored entries, which replan on their owner. It lives and dies with
	// the entry: a Put replaces it, an eviction drops it.
	src *planSource
}

func (v CachedPlan) size() int64 { return int64(len(v.Bin)) }

// ETagFor derives the strong entity tag for a plan's binary payload.
func ETagFor(bin []byte) string {
	h := fnv.New64a()
	h.Write(bin)
	return fmt.Sprintf("%q", fmt.Sprintf("%016x", h.Sum64()))
}

// StoreStats is the store's bookkeeping snapshot, surfaced in Stats.
type StoreStats struct {
	Entries   int    // plans currently stored
	Bytes     int64  // bytes currently stored
	Evictions uint64 // plans evicted by capacity limits
	Restored  int    // plans reloaded from persistence at construction
}

// memDiskStore stores encoded plans under their content-address cache keys:
// the bounded in-memory LRU with optional write-through disk persistence.
// Inserts mirror to disk with the entry's LRU stamp as the file's mtime, LRU
// and TTL evictions delete their files, and construction reloads the
// directory in mtime order — so the directory converges to the LRU's actual
// contents and a restart does not re-pay every synthesis. Safe for
// concurrent use.
type memDiskStore struct {
	cache    *lruCache
	persist  *diskStore // nil = memory only
	ttl      time.Duration
	restored int
}

// newMemDiskStore builds the store and, when persist is non-nil, restores
// its directory: files are replayed oldest-mtime first so the LRU's recency
// order survives the restart, and files older than ttl are deleted instead
// of restored.
func newMemDiskStore(maxEntries int, maxBytes int64, persist *diskStore, ttl time.Duration) *memDiskStore {
	s := &memDiskStore{
		cache:   newLRUCache(maxEntries, maxBytes),
		persist: persist,
		ttl:     ttl,
	}
	if persist != nil {
		var cutoff time.Time
		if ttl > 0 {
			cutoff = time.Now().Add(-ttl)
		}
		// Restore mirrors Put: entries the (possibly re-capped) cache
		// rejects or evicts during the reload lose their files too, so the
		// directory converges to the LRU's actual contents instead of
		// re-reading stale plans on every boot.
		s.restored = persist.load(cutoff, func(key string, v CachedPlan, mtime time.Time) bool {
			normalizePlan(&v, 1) // files from before versioning restore as v1
			stored, evicted := s.cache.add(key, v, mtime)
			if !stored {
				persist.remove(key)
			}
			for _, k := range evicted {
				persist.remove(k)
			}
			return stored
		})
	}
	return s
}

// Get returns the stored plan and refreshes its recency.
func (s *memDiskStore) Get(key string) (CachedPlan, bool) { return s.cache.get(key) }

// Put stores (or refreshes) v with its ETag derived from the plan content
// and, when the caller left it zero, a version continuing the stored entry's
// sequence (first insert = 1, replacement = previous + 1). Entries arriving
// with a version — fleet replication, warm-up streaming — keep the owner's,
// so the number is the same fleet-wide. It returns the entry with its
// metadata filled in and whether it was kept: a value over the caps is
// rejected.
func (s *memDiskStore) Put(key string, v CachedPlan) (CachedPlan, bool) {
	normalizePlan(&v, s.nextVersion(key))
	now := time.Now()
	stored, evicted := s.cache.add(key, v, now)
	if s.persist != nil {
		if stored {
			s.persist.save(key, v, now)
		}
		for _, k := range evicted {
			s.persist.remove(k)
		}
	}
	return v, stored
}

// Warm stores a warm-up entry below every plan already held, keeping its
// owner's version, and reports whether it fit without evicting anything. A
// peer streams its plans most-recently used first, so each entry belongs
// under the ones before it, and the first that does not fit ends the stream:
// what is left is colder still. A key already held is replaced in place.
// The entry's file carries its stamp, just below the tail's, so a restart
// restores the warm-up set in the peer's recency order.
func (s *memDiskStore) Warm(key string, v CachedPlan) bool {
	normalizePlan(&v, s.nextVersion(key))
	at, ok := s.cache.addTail(key, v, time.Now())
	if !ok {
		return false
	}
	if s.persist != nil {
		s.persist.save(key, v, at)
	}
	return true
}

// Range calls fn for each stored plan until fn returns false, most- to
// least-recently used, promoting none. fn sees a snapshot taken under the
// LRU's lock and runs outside it, so it may block (warm-up streams entries
// over the network) or compare (donor lookup) while hits go on.
func (s *memDiskStore) Range(fn func(key string, v CachedPlan) bool) {
	for _, e := range s.cache.entries() {
		if !fn(e.key, e.val) {
			return
		}
	}
}

func (s *memDiskStore) Stats() StoreStats {
	entries, bytes, evictions := s.cache.snapshot()
	return StoreStats{Entries: entries, Bytes: bytes, Evictions: evictions, Restored: s.restored}
}

// nextVersion is the version a zero-versioned write of key gets: 1 on first
// insert, the stored entry's version + 1 on a replacement.
func (s *memDiskStore) nextVersion(key string) uint64 {
	if prev, ok := s.cache.peek(key); ok {
		return prev.Version + 1
	}
	return 1
}

// normalizePlan derives the ETag from the plan bytes — whatever tag v
// arrived with — and fills a zero version with the given one.
func normalizePlan(v *CachedPlan, version uint64) {
	v.ETag = ETagFor(v.Bin)
	if v.Version == 0 {
		v.Version = version
	}
}

// sweep evicts every entry older than the TTL, deleting its file — the GC
// pass that keeps a long-lived -cache-dir from growing unbounded under a
// slowly-rotating working set. A no-op without a TTL.
func (s *memDiskStore) sweep(now time.Time) int {
	if s.ttl <= 0 {
		return 0
	}
	expired := s.cache.sweepExpired(now.Add(-s.ttl))
	if s.persist != nil {
		for _, k := range expired {
			s.persist.remove(k)
		}
	}
	return len(expired)
}
