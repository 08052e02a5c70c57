// The daemon's plan store: a concurrency-safe LRU of encoded plans, bounded
// both by entry count and by total bytes, with an optional write-through
// disk mirror (persist.go) and the ETag every stored plan carries. A
// model-scale plan is about 1–3 KiB of binary payload, so the entry cap is
// the binding limit in production; the byte cap is a backstop against a few
// very large plans. A TTL is checked where entries are read:
// Get, Range and the counts drop what has aged past it, so the store runs no
// timer and starts no goroutine. serve.go handles the wire protocol; the
// miss path and replication intake write through Put, warm-up through Warm;
// the warm-up stream a node serves, donor lookup and the drift scan read
// Range.

package serve

import (
	"container/list"
	"hash/fnv"
	"sync"
	"time"
)

// CachedPlan is one stored plan: its binary payload plus the entity tag
// served with it. The byte slice is shared between callers and must be
// treated as immutable.
type CachedPlan struct {
	Bin []byte // planwire.Append payload, the body of every plan answer
	// ETag is the strong entity tag served with the plan and matched against
	// If-None-Match: a quoted hash of the plan bytes, so a re-solve that
	// lands on byte-identical output keeps warm clients' tags valid. The
	// store derives it on every Put and restore; a tag supplied by the
	// caller is never trusted.
	ETag string
	// src is what a locally synthesized plan was planned from — its donor
	// and re-solve record (telemetry.go); nil on replicated, warmed-up and
	// restored entries, which are re-solved on their owner. It lives and
	// dies with the entry: a Put replaces it, an eviction drops it.
	src *planSource
}

func (v CachedPlan) size() int64 { return int64(len(v.Bin)) }

// ETagFor derives the strong entity tag for a plan's binary payload: the
// FNV-1a 64 hash of the bytes as 16 lower-case hex digits, in double quotes.
// Clients hold these tags and fleet nodes compare them, so the spelling is
// fixed; it is written in place, one allocation per tag.
func ETagFor(bin []byte) string {
	h := fnv.New64a()
	h.Write(bin)
	const digits = "0123456789abcdef"
	var b [18]byte
	b[0], b[17] = '"', '"'
	for i, v := 16, h.Sum64(); i > 0; i, v = i-1, v>>4 {
		b[i] = digits[v&0xf]
	}
	return string(b[:])
}

type storeEntry struct {
	key string
	val CachedPlan
	// at is the entry's LRU stamp: its insert (or refresh) time, or just
	// below the tail's for a warm-up entry. The TTL is measured from it, and
	// the disk mirror keeps it as the plan file's mtime, so a restore replays
	// entries in stamp order.
	at time.Time
}

// warmStampStep is how far below the tail's stamp a warm-up entry lands: a
// millisecond, so filesystems that keep coarse mtimes still order the files.
const warmStampStep = time.Millisecond

// store holds encoded plans under their content-address cache keys. Inserts
// mirror to disk with the entry's LRU stamp as the file's mtime, LRU
// evictions and entries read past the TTL delete their files, and
// construction reloads the directory in mtime order — so the directory
// converges to the LRU's actual contents and a restart does not re-pay every
// synthesis. Each write takes mu once, for
// its insert and the evictions it causes; hashing the ETag and the disk
// mirror run outside it. Safe for concurrent use.
type store struct {
	maxEntries int
	maxBytes   int64
	persist    *diskStore // nil = memory only
	ttl        time.Duration
	restored   int // plans reloaded at construction

	mu        sync.Mutex
	ll        *list.List // of *storeEntry, front = most recently used
	items     map[string]*list.Element
	bytes     int64
	evictions uint64
}

// newStore builds the store and, when persist is non-nil, restores its
// directory: files are replayed oldest-mtime first so the LRU's recency order
// survives the restart, and files older than ttl are deleted instead of
// restored.
func newStore(maxEntries int, maxBytes int64, persist *diskStore, ttl time.Duration) *store {
	s := &store{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		persist:    persist,
		ttl:        ttl,
		ll:         list.New(),
		items:      map[string]*list.Element{},
	}
	if persist != nil {
		var cutoff time.Time
		if ttl > 0 {
			cutoff = time.Now().Add(-ttl)
		}
		// Restore mirrors Put: entries the (possibly re-capped) store
		// rejects or evicts during the reload lose their files too, so the
		// directory converges to the LRU's actual contents instead of
		// re-reading stale plans on every boot.
		s.restored = persist.load(cutoff, func(key string, v CachedPlan, mtime time.Time) bool {
			_, stored, evicted := s.insert(key, v, mtime)
			if !stored {
				evicted = append(evicted, key)
			}
			s.drop(evicted)
			return stored
		})
	}
	return s
}

// Get returns the stored plan and refreshes its recency. An entry past the
// TTL is a miss: it is evicted and its file deleted. The returned plan bytes
// are shared — callers must not mutate them.
func (s *store) Get(key string) (CachedPlan, bool) {
	s.mu.Lock()
	e, ok := s.items[key]
	if !ok {
		s.mu.Unlock()
		return CachedPlan{}, false
	}
	ent := e.Value.(*storeEntry)
	if s.ttl > 0 && ent.at.Before(time.Now().Add(-s.ttl)) {
		s.evict(e)
		s.mu.Unlock()
		s.drop([]string{key})
		return CachedPlan{}, false
	}
	s.ll.MoveToFront(e)
	v := ent.val
	s.mu.Unlock()
	return v, true
}

// Put stores (or refreshes) v at the LRU head, evicting from the tail until
// both caps hold, and returns it with the ETag derived from the plan
// content. A value larger than the byte cap on its own is not stored at all
// — storing it would evict everything else for a single entry — but comes
// back tagged all the same.
func (s *store) Put(key string, v CachedPlan) CachedPlan {
	now := time.Now()
	v, stored, evicted := s.insert(key, v, now)
	if stored && s.persist != nil {
		s.persist.save(key, v, now)
	}
	s.drop(evicted)
	return v
}

// insert is Put's in-memory half, stamping the entry at: it reports whether
// v was stored and which keys it evicted, for the caller to mirror on disk.
func (s *store) insert(key string, v CachedPlan, at time.Time) (_ CachedPlan, stored bool, evicted []string) {
	v.ETag = ETagFor(v.Bin)
	if v.size() > s.maxBytes {
		return v, false, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[key]; ok {
		ent := e.Value.(*storeEntry)
		s.bytes += v.size() - ent.val.size()
		ent.val, ent.at = v, at
		s.ll.MoveToFront(e)
	} else {
		s.items[key] = s.ll.PushFront(&storeEntry{key: key, val: v, at: at})
		s.bytes += v.size()
	}
	for s.ll.Len() > s.maxEntries || s.bytes > s.maxBytes {
		evicted = append(evicted, s.evict(s.ll.Back()))
	}
	return v, true, evicted
}

// Warm stores a warm-up entry below every plan already held and reports
// whether it fit without evicting anything. A peer streams its plans
// most-recently used first, so each entry belongs under the ones before it,
// and the first that does not fit ends the stream: what is left is colder
// still. A key already held is replaced in place and keeps its stamp. A new
// entry's file carries a stamp just below the tail's (now in an empty
// store), so a restart restores the warm-up set in the peer's recency order.
func (s *store) Warm(key string, v CachedPlan) bool {
	v.ETag = ETagFor(v.Bin)
	now := time.Now()
	s.mu.Lock()
	e := s.items[key]
	n, grow := s.ll.Len()+1, v.size()
	if e != nil {
		n--
		grow -= e.Value.(*storeEntry).val.size()
	}
	if n > s.maxEntries || s.bytes+grow > s.maxBytes {
		s.mu.Unlock()
		return false
	}
	s.bytes += grow
	var at time.Time
	if e != nil {
		ent := e.Value.(*storeEntry)
		ent.val, at = v, ent.at
	} else {
		at = now
		if tail := s.ll.Back(); tail != nil {
			at = tail.Value.(*storeEntry).at.Add(-warmStampStep)
		}
		s.items[key] = s.ll.PushBack(&storeEntry{key: key, val: v, at: at})
	}
	s.mu.Unlock()
	if s.persist != nil {
		s.persist.save(key, v, at)
	}
	return true
}

// evict unlinks one entry and returns its key; the caller holds s.mu.
func (s *store) evict(e *list.Element) string {
	ent := s.ll.Remove(e).(*storeEntry)
	delete(s.items, ent.key)
	s.bytes -= ent.val.size()
	s.evictions++
	return ent.key
}

// drop deletes evicted keys' files when persistence is on.
func (s *store) drop(keys []string) {
	if s.persist == nil {
		return
	}
	for _, k := range keys {
		s.persist.remove(k)
	}
}

// Range calls fn for each stored plan until fn returns false, most- to
// least-recently used, promoting none. fn sees a snapshot taken under the
// lock and runs outside it, so it may block (warm-up streams entries over the
// network) or compare (donor lookup) while hits go on. The snapshot shares
// its byte slices with the store (immutable by contract), so it is cheap.
// Entries past the TTL are dropped, not visited: nothing donates, streams
// or re-solves an expired plan.
func (s *store) Range(fn func(key string, v CachedPlan) bool) {
	s.mu.Lock()
	expired := s.expire()
	snap := make([]storeEntry, 0, s.ll.Len())
	for e := s.ll.Front(); e != nil; e = e.Next() {
		snap = append(snap, *e.Value.(*storeEntry))
	}
	s.mu.Unlock()
	s.drop(expired)
	for _, e := range snap {
		if !fn(e.key, e.val) {
			return
		}
	}
}

// counts returns the plans and bytes held and the evictions so far, after
// dropping the entries past the TTL.
func (s *store) counts() (entries int, bytes int64, evictions uint64) {
	s.mu.Lock()
	expired := s.expire()
	entries, bytes, evictions = s.ll.Len(), s.bytes, s.evictions
	s.mu.Unlock()
	s.drop(expired)
	return entries, bytes, evictions
}

// expire evicts every entry stamped more than the TTL ago and returns their
// keys, for the caller to drop once it has released s.mu. A no-op without a
// TTL. The caller holds s.mu.
func (s *store) expire() (expired []string) {
	if s.ttl <= 0 {
		return nil
	}
	cutoff := time.Now().Add(-s.ttl)
	for e := s.ll.Front(); e != nil; {
		next := e.Next()
		if e.Value.(*storeEntry).at.Before(cutoff) {
			expired = append(expired, s.evict(e))
		}
		e = next
	}
	return expired
}
