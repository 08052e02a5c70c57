package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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
	s := newMemDiskStore(2, 1<<20, d, 0)
	if s.Stats().Restored != 3 {
		t.Errorf("restored = %d, want 3", s.Stats().Restored)
	}
	if s.Stats().Entries != 2 {
		t.Errorf("entries = %d, want the cap of 2", s.Stats().Entries)
	}
	if _, ok := s.Get("k0"); ok {
		t.Error("oldest plan survived restore into a smaller cache")
	}
	for _, k := range []string{"k1", "k2"} {
		if v, ok := s.Get(k); !ok || !bytes.Equal(v.Bin, framed("plan-"+k)) {
			t.Errorf("recent plan %s: restored %v with payload %q, want the saved payload", k, ok, v.Bin)
		}
	}
	if got, want := s.Stats().Bytes, int64(2*len(framed("plan-k0"))); got != want {
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

	s := newMemDiskStore(10, 1<<20, d, 24*time.Hour)
	if _, ok := s.Get("stale"); ok {
		t.Error("plan older than the TTL was restored")
	}
	if _, ok := s.Get("fresh"); !ok {
		t.Error("fresh plan lost")
	}
	if s.Stats().Restored != 1 {
		t.Errorf("restored = %d, want 1", s.Stats().Restored)
	}
	if n := planFiles(t, dir); n != 1 {
		t.Errorf("%d plan files after TTL restore, want the fresh one only", n)
	}
}

// TestSweepExpiresAgedEntries restores backdated entries, then runs the TTL
// sweep as if time had passed: aged entries leave the cache and the disk.
func TestSweepExpiresAgedEntries(t *testing.T) {
	dir := t.TempDir()
	d, err := newDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d.save("old", framedPlan("a"), time.Now())
	backdate(t, d, "old", 2*time.Hour)
	d.save("new", framedPlan("b"), time.Now())

	// TTL of 3h restores both ("old" is 2h, inside the horizon)...
	s := newMemDiskStore(10, 1<<20, d, 3*time.Hour)
	if s.Stats().Restored != 2 {
		t.Fatalf("restored = %d, want 2", s.Stats().Restored)
	}
	// ...then a sweep 2h "later" finds "old" (now 4h) past the TTL.
	if n := s.sweep(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Errorf("sweep evicted %d entries, want 1", n)
	}
	if _, ok := s.Get("old"); ok {
		t.Error("aged entry survived the sweep")
	}
	if _, ok := s.Get("new"); !ok {
		t.Error("fresh entry swept")
	}
	if n := planFiles(t, dir); n != 1 {
		t.Errorf("%d plan files after sweep, want 1", n)
	}
	// Sweep evictions count as cache evictions in Stats.
	if ev := s.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

// TestStoreRangeIsMRUFirst checks the Range contract the fleet warm-up
// stream depends on: most recently used entries come first, so a transfer
// cut short delivered the hottest keys.
func TestStoreRangeIsMRUFirst(t *testing.T) {
	s := newMemDiskStore(10, 1<<20, nil, 0)
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
