package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestRingOwnershipIsDeterministic(t *testing.T) {
	members := []string{"http://a:8080", "http://b:8080", "http://c:8080"}
	r1 := NewRing(members)
	r2 := NewRing([]string{"http://c:8080", "http://a:8080/", " http://b:8080 "}) // order, slashes, spaces
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("fingerprint-%d", i)
		if r1.Owner(key) != r2.Owner(key) {
			t.Fatalf("key %q: owners differ across equivalent rings: %q vs %q", key, r1.Owner(key), r2.Owner(key))
		}
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	members := []string{"http://a:8080", "http://b:8080", "http://c:8080"}
	r := NewRing(members)
	byOwner := map[string]int{}
	for i := 0; i < 3000; i++ {
		byOwner[r.Owner(fmt.Sprintf("fingerprint-%d", i))]++
	}
	for _, m := range members {
		// A 3-node ring with 64 vnodes each should give every node a
		// non-trivial share; the bound is loose on purpose (hash variance).
		if byOwner[m] < 300 {
			t.Errorf("member %s owns only %d of 3000 keys", m, byOwner[m])
		}
	}
}

func TestRingSuccessorsDistinctOwnerFirst(t *testing.T) {
	r := NewRing([]string{"http://a:8080", "http://b:8080", "http://c:8080"})
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		set := r.Successors(key, 2)
		if len(set) != 2 {
			t.Fatalf("Successors(%q, 2) = %v", key, set)
		}
		if set[0] != r.Owner(key) {
			t.Errorf("Successors(%q)[0] = %q, want owner %q", key, set[0], r.Owner(key))
		}
		if set[0] == set[1] {
			t.Errorf("Successors(%q) repeats %q", key, set[0])
		}
	}
	// Asking for more replicas than members returns everyone, once.
	if set := r.Successors("k", 10); len(set) != 3 {
		t.Errorf("Successors(k, 10) = %v, want all 3 members", set)
	}
}

func TestRingMinimalDisruptionOnMemberLoss(t *testing.T) {
	before := NewRing([]string{"http://a:8080", "http://b:8080", "http://c:8080"})
	after := NewRing([]string{"http://a:8080", "http://b:8080"})
	moved := 0
	const keys = 1000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("fingerprint-%d", i)
		was, is := before.Owner(key), after.Owner(key)
		if was != "http://c:8080" && was != is {
			moved++
		}
	}
	// Consistent hashing's point: keys not owned by the removed node stay
	// put. Allow nothing — survivors' vnode positions are unchanged.
	if moved != 0 {
		t.Errorf("%d/%d keys owned by surviving nodes moved when c left", moved, keys)
	}
}

func TestEmptyAndSingleRing(t *testing.T) {
	if owner := NewRing(nil).Owner("k"); owner != "" {
		t.Errorf("empty ring owner = %q", owner)
	}
	r := NewRing([]string{"http://only:1"})
	if owner := r.Owner("k"); owner != "http://only:1" {
		t.Errorf("single ring owner = %q", owner)
	}
	if set := r.Successors("k", 3); len(set) != 1 {
		t.Errorf("single ring successors = %v", set)
	}
}

func TestMembershipMergesStaticAndFile(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "peers")
	if err := os.WriteFile(file, []byte("# fleet\nhttp://c:8080\n\nhttp://d:8080\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := NewMembership("http://a:8080", []string{"http://b:8080"}, file)
	if err != nil {
		t.Fatal(err)
	}
	peers := m.Peers()
	want := []string{"http://a:8080", "http://b:8080", "http://c:8080", "http://d:8080"}
	if len(peers) != len(want) {
		t.Fatalf("peers = %v, want %v", peers, want)
	}
	for i := range want {
		if peers[i] != want[i] {
			t.Fatalf("peers = %v, want %v", peers, want)
		}
	}
}

// FuzzPeersFile holds parsePeers to what a ring build relies on: arbitrary
// bytes never panic it, every peer it returns is non-empty, already trimmed
// and not a #-comment, and writing the list back one peer per line parses to
// the same list. The committed corpus holds a CRLF file, a comment-only file
// and a URL listed twice, once with a trailing slash.
func FuzzPeersFile(f *testing.F) {
	f.Add([]byte("# fleet\nhttp://c:8080\n\nhttp://d:8080\n"))
	f.Add([]byte("  http://a:1  \n\t#x\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		peers := parsePeers(data)
		for _, p := range peers {
			if p == "" || p != strings.TrimSpace(p) || strings.HasPrefix(p, "#") {
				t.Fatalf("parsed peer %q from %q", p, data)
			}
		}
		if again := parsePeers([]byte(strings.Join(peers, "\n"))); !slices.Equal(again, peers) {
			t.Fatalf("peers %q written back parse to %q", peers, again)
		}
	})
}

func TestMembershipReloadSwapsRing(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "peers")
	if err := os.WriteFile(file, []byte("http://b:8080\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := NewMembership("http://a:8080", nil, file)
	if err != nil {
		t.Fatal(err)
	}
	if m.Ring().Size() != 2 {
		t.Fatalf("initial size = %d, want 2", m.Ring().Size())
	}
	if err := os.WriteFile(file, []byte("http://b:8080\nhttp://c:8080\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	changed, err := m.Reload()
	if err != nil || !changed {
		t.Fatalf("Reload = (%v, %v), want (true, nil)", changed, err)
	}
	if m.Ring().Size() != 3 {
		t.Errorf("size after reload = %d, want 3", m.Ring().Size())
	}
	if m.Reloads() != 1 {
		t.Errorf("Reloads = %d, want 1", m.Reloads())
	}
	// An unchanged file reloads to the same membership: not counted.
	if changed, _ := m.Reload(); changed {
		t.Error("no-op reload reported a change")
	}
}

func TestMembershipMissingFileFailsLoudly(t *testing.T) {
	if _, err := NewMembership("http://a:8080", nil, "/nonexistent/peers"); err == nil {
		t.Fatal("missing peers file did not error")
	}
}

func TestMembershipPollingPicksUpChange(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "peers")
	if err := os.WriteFile(file, []byte("http://b:8080\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := NewMembership("http://a:8080", nil, file)
	if err != nil {
		t.Fatal(err)
	}
	stop := m.StartPolling(10 * time.Millisecond)
	defer stop()
	if err := os.WriteFile(file, []byte("http://b:8080\nhttp://c:8080\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Backdate-proof: ensure a distinct mtime even on coarse filesystems.
	os.Chtimes(file, time.Now(), time.Now().Add(time.Second))
	deadline := time.Now().Add(5 * time.Second)
	for m.Ring().Size() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("polling never picked up the new peer; size = %d", m.Ring().Size())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHealthMarking(t *testing.T) {
	h := NewHealth()
	if !h.Healthy("http://a:8080") {
		t.Error("unknown peer should default healthy")
	}
	h.MarkDown("http://a:8080/")
	if h.Healthy("http://a:8080") {
		t.Error("marked-down peer reported healthy (normalization)")
	}
	if h.DownCount() != 1 {
		t.Errorf("DownCount = %d, want 1", h.DownCount())
	}
	h.MarkUp("http://a:8080")
	if !h.Healthy("http://a:8080") {
		t.Error("marked-up peer reported down")
	}
}

func TestFleetReplicaSetClampedToSize(t *testing.T) {
	f, err := New(Config{Self: "http://a:8080", Peers: []string{"http://b:8080"}, Replicas: 5})
	if err != nil {
		t.Fatal(err)
	}
	if set := f.ReplicaSet("k"); len(set) != 2 {
		t.Errorf("ReplicaSet = %v, want both members", set)
	}
	if f.ReplicaCount() != 5 {
		t.Errorf("ReplicaCount = %d, want the configured 5", f.ReplicaCount())
	}
}

func TestFleetRequiresSelf(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("Fleet without Self did not error")
	}
}

// TestStartStopReturnsGoroutines: Start runs the peers-file poller and the
// health prober on a goroutine each, and Stop ends both, so the goroutine
// count comes back to where it was before Start.
func TestStartStopReturnsGoroutines(t *testing.T) {
	peers := filepath.Join(t.TempDir(), "peers")
	if err := os.WriteFile(peers, []byte("http://b:1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{Self: "http://a:1", PeersFile: peers})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	f.Start()
	if n := runtime.NumGoroutine(); n < before+2 {
		t.Errorf("Start: %d goroutines, want the poller and the prober on top of %d", n, before)
	}
	f.Stop()
	// Stop signals both loops; each returns at its next select.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("Stop: %d goroutines 5s later, want %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
