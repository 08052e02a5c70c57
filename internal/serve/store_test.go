package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// framed wraps s as a payload that passes the intake's framing check
// (planwire.Framed): dist's magic, s, an empty trailer. It is no plan anyone
// could decode, and the store never decodes what it holds.
func framed(s string) []byte {
	b := append([]byte("HAPB"), s...)
	b = append(b, "{}"...)
	b = binary.BigEndian.AppendUint32(b, 2)
	return append(b, "HAPT"...)
}

func framedPlan(s string) CachedPlan { return CachedPlan{Bin: framed(s)} }

// TestETagForSpellingAndAllocs: a tag is the payload's FNV-1a 64 hash as 16
// zero-padded lower-case hex digits in double quotes — the spelling clients
// hold and fleet nodes compare, here against fmt's rendering of it — written
// in one allocation. The payloads include one whose hash starts with zero
// digits, so the padding shows.
func TestETagForSpellingAndAllocs(t *testing.T) {
	sum := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	payloads := [][]byte{nil, []byte("x"), framed("plan")}
	for i := 0; ; i++ {
		if b := []byte(strconv.Itoa(i)); sum(b) < 1<<56 {
			payloads = append(payloads, b)
			break
		}
	}
	for _, b := range payloads {
		if got, want := ETagFor(b), fmt.Sprintf("%q", fmt.Sprintf("%016x", sum(b))); got != want {
			t.Errorf("ETagFor(%q) = %s, want %s", b, got, want)
		}
	}
	bin := framed("plan")
	if n := testing.AllocsPerRun(100, func() { _ = ETagFor(bin) }); n != 1 {
		t.Errorf("ETagFor makes %.0f allocations, want 1", n)
	}
}

// TestETagMatchesAndAllocs holds If-None-Match's comparison to RFC 9110's
// weak comparison over a comma list, and to no allocation: it scans the
// header in place (it split the header into a slice on every conditional
// request before).
func TestETagMatchesAndAllocs(t *testing.T) {
	const tag = `"00ff00ff00ff00ff"`
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{"", false},
		{tag, true},
		{"*", true},
		{" * ", true},
		{"W/" + tag, true},
		{`"aa", ` + tag, true},
		{`"aa" ,  W/` + tag + ` , "bb"`, true},
		{`"aa",` + tag, true},
		{`"aa", "bb"`, false},
		{`W/"aa"`, false},
		{tag[1:], false},
		{",", false},
		{`"aa",*`, true},
	} {
		if got := etagMatches(tc.header, tag); got != tc.want {
			t.Errorf("etagMatches(%q) = %t, want %t", tc.header, got, tc.want)
		}
	}
	header := `"aa" ,  W/"bb", ` + tag
	if n := testing.AllocsPerRun(100, func() { _ = etagMatches(header, tag) }); n != 0 {
		t.Errorf("etagMatches makes %.0f allocations, want 0", n)
	}
}

// backdate rewinds a persisted plan's file mtime, standing in for a plan
// written long ago.
func backdate(t *testing.T, d *diskStore, key string, age time.Duration) {
	t.Helper()
	when := time.Now().Add(-age)
	if err := os.Chtimes(d.path(key), when, when); err != nil {
		t.Fatal(err)
	}
}

func planFiles(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), planFileExt) {
			n++
		}
	}
	return n
}

// bp wraps raw bytes as a header-less CachedPlan for store tests.
func bp(s string) CachedPlan { return CachedPlan{Bin: []byte(s)} }

// holds reports whether s stores key without promoting it, as Get would.
func holds(s *store, key string) bool {
	found := false
	s.Range(func(k string, _ CachedPlan) bool {
		found = k == key
		return !found
	})
	return found
}

func TestLRUEntryCapEvictsOldest(t *testing.T) {
	c := newStore(2, 1<<20, nil, 0)
	c.Put("a", bp("1"))
	c.Put("b", bp("2"))
	c.Put("c", bp("3"))
	if _, ok := c.Get("a"); ok {
		t.Error("oldest entry survived the entry cap")
	}
	for _, k := range []string{"b", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("entry %q evicted prematurely", k)
		}
	}
	if entries, bytes, evictions := c.counts(); entries != 2 || bytes != 2 || evictions != 1 {
		t.Errorf("counts = (%d, %d, %d), want (2, 2, 1)", entries, bytes, evictions)
	}
}

func TestLRUByteCapEvicts(t *testing.T) {
	c := newStore(100, 10, nil, 0)
	c.Put("a", CachedPlan{Bin: make([]byte, 6)})
	c.Put("b", CachedPlan{Bin: make([]byte, 6)}) // 12 > 10: "a" must go
	if _, ok := c.Get("a"); ok {
		t.Error("byte cap not enforced")
	}
	if _, ok := c.Get("b"); !ok {
		t.Error("newest entry evicted")
	}
}

func TestLRUGetRefreshesRecency(t *testing.T) {
	c := newStore(2, 1<<20, nil, 0)
	c.Put("a", bp("1"))
	c.Put("b", bp("2"))
	c.Get("a") // "b" is now least recent
	c.Put("c", bp("3"))
	if _, ok := c.Get("a"); !ok {
		t.Error("recently used entry evicted")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("least recently used entry survived")
	}
}

func TestLRUOversizedValueNotCached(t *testing.T) {
	c := newStore(10, 4, nil, 0)
	c.Put("big", CachedPlan{Bin: make([]byte, 5)})
	if _, ok := c.Get("big"); ok {
		t.Error("value above the byte cap was cached")
	}
	if entries, bytes, _ := c.counts(); entries != 0 || bytes != 0 {
		t.Errorf("counts = (%d, %d), want empty", entries, bytes)
	}
}

func TestLRUUpdateExistingKey(t *testing.T) {
	c := newStore(10, 1<<20, nil, 0)
	c.Put("a", bp("1"))
	c.Put("a", bp("1234"))
	v, ok := c.Get("a")
	if !ok || string(v.Bin) != "1234" {
		t.Errorf("get after update = %q, %v", v.Bin, ok)
	}
	if entries, bytes, _ := c.counts(); entries != 1 || bytes != 4 {
		t.Errorf("counts = (%d, %d), want (1, 4)", entries, bytes)
	}
}

func TestLRUConcurrentAccess(t *testing.T) {
	// Meaningful under -race: hammer the store from many goroutines. With a
	// TTL shorter than the run, the readers evict too.
	for _, ttl := range []time.Duration{0, time.Microsecond} {
		c := newStore(32, 1<<20, nil, ttl)
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for j := 0; j < 200; j++ {
					k := fmt.Sprintf("k%d", (id+j)%64)
					c.Put(k, bp(k))
					c.Get(k)
					if j%16 == 0 {
						c.Range(func(string, CachedPlan) bool { return true })
						c.counts()
					}
				}
			}(i)
		}
		wg.Wait()
		// One locked snapshot: with a 1 µs TTL, counts and Range each expire
		// entries, so two separate readings race the clock.
		c.mu.Lock()
		entries, size := c.ll.Len(), c.bytes
		var held int64
		for e := c.ll.Front(); e != nil; e = e.Next() {
			held += e.Value.(*storeEntry).val.size()
		}
		c.mu.Unlock()
		if entries > 32 {
			t.Errorf("ttl %v: %d entries above the cap", ttl, entries)
		}
		if held != size {
			t.Errorf("ttl %v: entries hold %d bytes, the store counts %d", ttl, held, size)
		}
	}
}

// TestRestorePreservesLRUOrder persists three plans with staggered mtimes and
// restores them into a 2-entry cache: the oldest must lose — evicted during
// the replay and its file deleted — because restore replays oldest-first so
// disk age maps onto LRU recency.
func TestRestorePreservesLRUOrder(t *testing.T) {
	dir := t.TempDir()
	d, err := newDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, age := range []time.Duration{3 * time.Hour, 2 * time.Hour, time.Hour} {
		key := fmt.Sprintf("k%d", i)
		d.save(key, framedPlan("plan-"+key), time.Now())
		backdate(t, d, key, age)
	}

	// All three replay (Restored counts accepted adds); the oldest is then
	// evicted by the third's arrival, exactly as live traffic would evict it.
	s := newStore(2, 1<<20, d, 0)
	if s.restored != 3 {
		t.Errorf("restored = %d, want 3", s.restored)
	}
	if entries, _, _ := s.counts(); entries != 2 {
		t.Errorf("entries = %d, want the cap of 2", entries)
	}
	if _, ok := s.Get("k0"); ok {
		t.Error("oldest plan survived restore into a smaller cache")
	}
	for _, k := range []string{"k1", "k2"} {
		if v, ok := s.Get(k); !ok || !bytes.Equal(v.Bin, framed("plan-"+k)) {
			t.Errorf("recent plan %s: restored %v with payload %q, want the saved payload", k, ok, v.Bin)
		}
	}
	want := int64(2 * len(framed("plan-k0")))
	if _, got, _ := s.counts(); got != want {
		t.Errorf("restored cache holds %d bytes, want the two payloads' %d", got, want)
	}
	// The directory converges to the cache's contents: k0's file is gone.
	if n := planFiles(t, dir); n != 2 {
		t.Errorf("%d plan files after restore, want 2", n)
	}
}

// TestRestoreAppliesTTLCutoff persists one fresh and one aged plan; restoring
// with a TTL deletes the aged file instead of reloading it.
func TestRestoreAppliesTTLCutoff(t *testing.T) {
	dir := t.TempDir()
	d, err := newDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d.save("fresh", framedPlan("a"), time.Now())
	d.save("stale", framedPlan("b"), time.Now())
	backdate(t, d, "stale", 48*time.Hour)

	s := newStore(10, 1<<20, d, 24*time.Hour)
	if _, ok := s.Get("stale"); ok {
		t.Error("plan older than the TTL was restored")
	}
	if _, ok := s.Get("fresh"); !ok {
		t.Error("fresh plan lost")
	}
	if s.restored != 1 {
		t.Errorf("restored = %d, want 1", s.restored)
	}
	if n := planFiles(t, dir); n != 1 {
		t.Errorf("%d plan files after TTL restore, want the fresh one only", n)
	}
}

// TestExpiredEntriesDroppedOnRead restores backdated entries, then ages
// them as if time had passed: each reader of the store — Get, the Range
// snapshot and the counts behind Stats — finds the aged entry past the TTL
// and drops it, deleting its file and counting an eviction, while the fresh
// entry stays.
func TestExpiredEntriesDroppedOnRead(t *testing.T) {
	for name, read := range map[string]func(t *testing.T, s *store){
		"get": func(t *testing.T, s *store) {
			if _, ok := s.Get("old"); ok {
				t.Error("Get served an entry past the TTL")
			}
		},
		"range": func(t *testing.T, s *store) {
			s.Range(func(k string, _ CachedPlan) bool {
				if k == "old" {
					t.Error("Range visited an entry past the TTL")
				}
				return true
			})
		},
		"counts": func(t *testing.T, s *store) {
			if n, _, _ := s.counts(); n != 1 {
				t.Errorf("counts report %d entries, want the fresh one only", n)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := newDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			d.save("old", framedPlan("a"), time.Now())
			backdate(t, d, "old", 2*time.Hour)
			d.save("new", framedPlan("b"), time.Now())

			// TTL of 3h restores both ("old" is 2h, inside the horizon)...
			s := newStore(10, 1<<20, d, 3*time.Hour)
			if s.restored != 2 {
				t.Fatalf("restored = %d, want 2", s.restored)
			}
			// ...then 2h "later" "old" (now 4h) is past the TTL.
			ageEntries(s, 2*time.Hour)
			read(t, s)
			if n := planFiles(t, dir); n != 1 {
				t.Errorf("%d plan files after the read, want 1", n)
			}
			if _, ok := s.Get("new"); !ok {
				t.Error("fresh entry dropped")
			}
			// A drop counts as a cache eviction in Stats.
			if _, _, ev := s.counts(); ev != 1 {
				t.Errorf("evictions = %d, want 1", ev)
			}
		})
	}
}

// ageEntries moves every entry's stamp back by d, standing in for d passing.
func ageEntries(s *store, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for e := s.ll.Front(); e != nil; e = e.Next() {
		ent := e.Value.(*storeEntry)
		ent.at = ent.at.Add(-d)
	}
}

// TestStoreRangeIsMRUFirst checks the Range contract the fleet warm-up
// stream depends on: most recently used entries come first, so a transfer
// cut short delivered the hottest keys.
func TestStoreRangeIsMRUFirst(t *testing.T) {
	s := newStore(10, 1<<20, nil, 0)
	for _, k := range []string{"a", "b", "c"} {
		s.Put(k, bp(k))
	}
	s.Get("a") // "a" is now hottest
	var order []string
	s.Range(func(key string, v CachedPlan) bool {
		order = append(order, key)
		return true
	})
	want := []string{"a", "c", "b"}
	if len(order) != len(want) {
		t.Fatalf("Range visited %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("Range order = %v, want %v", order, want)
		}
	}
	// Early termination: fn returning false stops the walk.
	visits := 0
	s.Range(func(string, CachedPlan) bool { visits++; return false })
	if visits != 1 {
		t.Errorf("Range ignored fn returning false (%d visits)", visits)
	}
}

// TestFilenameIsContentAddressed: distinct keys get distinct files, the same
// key overwrites in place.
func TestFilenameIsContentAddressed(t *testing.T) {
	dir := t.TempDir()
	d, err := newDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d.save("k1", bp("a"), time.Now())
	d.save("k1", bp("b"), time.Now())
	d.save("k2", bp("c"), time.Now())
	if n := planFiles(t, dir); n != 2 {
		t.Errorf("%d plan files, want 2 (same key overwrites)", n)
	}
	if d.path("k1") == d.path("k2") {
		t.Error("distinct keys share a file")
	}
	if filepath.Dir(d.path("k1")) != dir {
		t.Error("plan file outside the cache dir")
	}
}
