// The body-hash memo: a bounded table from the sha256 of a raw request body
// to the cache key that body decodes to. A repeat body is answered without
// graph.Decode, cluster.Decode or either fingerprint — the bytes already
// determine the key.
//
// The mapping is a pure function of the bytes (decode and key derivation are
// deterministic), so an entry never goes stale: whatever happens to the plan
// in the store — eviction, TTL expiry, a drift re-solve — the body still
// derives the same key, and the store lookup that follows a memo hit decides
// hit or miss exactly as the full decode would have. That is why the table
// needs no eviction hook and no coordination with the store; it only needs a
// bound. The hash must be collision-resistant because the table is shared
// across clients: with a forgeable hash one client could craft a body that
// maps another client's request onto the wrong key.

package serve

import (
	"crypto/sha256"
	"sync"
)

type bodySum = [sha256.Size]byte

// bodyMemo holds two generations of entries: lookups that hit the old
// generation promote into the current one, and a full current generation
// becomes the old one. Bodies in use survive rotation; at most 2×perGen
// entries are alive. Safe for concurrent use.
type bodyMemo struct {
	mu       sync.Mutex
	perGen   int
	cur, old map[bodySum]string
}

func newBodyMemo(perGen int) *bodyMemo {
	return &bodyMemo{perGen: perGen, cur: map[bodySum]string{}}
}

func (m *bodyMemo) get(sum bodySum) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if key, ok := m.cur[sum]; ok {
		return key, true
	}
	key, ok := m.old[sum]
	if ok {
		m.putLocked(sum, key)
	}
	return key, ok
}

// put records that the body hashing to sum decoded, validated and derived
// key. Callers must not record a body that failed any of those steps.
func (m *bodyMemo) put(sum bodySum, key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.putLocked(sum, key)
}

func (m *bodyMemo) putLocked(sum bodySum, key string) {
	if len(m.cur) >= m.perGen {
		m.old, m.cur = m.cur, map[bodySum]string{}
	}
	m.cur[sum] = key
}
