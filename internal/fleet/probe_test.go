// Regression tests for the drift-edge bugs the fleet tier exposed: the
// peers-file poller missing same-mtime rewrites (and reloading spuriously on
// its first tick), and health probes that tore down keep-alive connections
// and serialized a round behind dead peers.

package fleet

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// TestMembershipPollSameMtimeRewrite: a rewrite that lands within the
// filesystem's mtime granularity leaves the mtime unchanged; the poller must
// still detect it via the size. (A same-mtime same-size rewrite is
// undetectable by stat alone — documented limitation.)
func TestMembershipPollSameMtimeRewrite(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "peers")
	if err := os.WriteFile(file, []byte("http://b:8080\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := NewMembership("http://a:8080", nil, file)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := os.Stat(file)
	if err != nil {
		t.Fatal(err)
	}
	stop := m.StartPolling(10 * time.Millisecond)
	defer stop()

	if err := os.WriteFile(file, []byte("http://b:8080\nhttp://c:8080\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Force the rewrite's mtime back to the original: the poller sees the
	// exact stat signature an in-granularity rewrite produces.
	if err := os.Chtimes(file, orig.ModTime(), orig.ModTime()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Ring().Size() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("poller missed the same-mtime rewrite; size = %d", m.Ring().Size())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMembershipPollNoSpuriousFirstTick: the first poll tick must not reload
// a file nobody touched. Before the fix, the zero-valued lastMtime made
// every first tick look dirty.
func TestMembershipPollNoSpuriousFirstTick(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "peers")
	if err := os.WriteFile(file, []byte("http://b:8080\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := NewMembership("http://a:8080", nil, file)
	if err != nil {
		t.Fatal(err)
	}
	stop := m.StartPolling(5 * time.Millisecond)
	defer stop()
	time.Sleep(100 * time.Millisecond) // many ticks
	if n := m.Reloads(); n != 0 {
		t.Errorf("poller reloaded %d times with an untouched file, want 0", n)
	}
}

// TestProbeDrainsBodyForKeepAlive: two sequential probes against the same
// peer must reuse one connection. An undrained response body forces the
// transport to discard the connection, so every probe round pays a fresh
// handshake per peer.
func TestProbeDrainsBodyForKeepAlive(t *testing.T) {
	var newConns atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	}))
	srv.Config.ConnState = func(c net.Conn, state http.ConnState) {
		if state == http.StateNew {
			newConns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	h := NewHealth()
	for i := 0; i < 3; i++ {
		if err := h.Probe(context.Background(), srv.URL); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
	}
	if got := newConns.Load(); got != 1 {
		t.Errorf("3 probes opened %d connections, want 1 (keep-alive reuse)", got)
	}
}

// TestProbeRoundConcurrentWallClock: a round over N slow peers completes in
// roughly one probe's latency, not N of them — a dead peer's timeout must
// not stretch the round past the probe interval for everyone else.
func TestProbeRoundConcurrentWallClock(t *testing.T) {
	const peers = 4
	const delay = 300 * time.Millisecond
	urls := make([]string, 0, peers)
	for i := 0; i < peers; i++ {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(delay)
			w.Write([]byte(`{"status":"ok"}`))
		}))
		defer srv.Close()
		urls = append(urls, srv.URL)
	}

	h := NewHealth()
	start := time.Now()
	h.probeRound("http://self:1", urls)
	elapsed := time.Since(start)
	// Sequential would take >= peers*delay = 1.2s; allow generous slack over
	// one delay for scheduler noise.
	if elapsed >= 900*time.Millisecond {
		t.Errorf("probe round took %v, want ~%v (concurrent probes)", elapsed, delay)
	}
	for _, u := range urls {
		if !h.Healthy(u) {
			t.Errorf("peer %s marked down by a successful round", u)
		}
	}
}
