// Peer health tracking. Two signal sources feed the same table: a
// background prober GETs every peer's /healthz on an interval, and the
// proxy path reports transport failures immediately (MarkDown) so a dead
// owner is skipped on the very next request instead of a probe interval
// later. Unknown peers are presumed healthy — optimism costs one failed
// proxy attempt; pessimism would black-hole a freshly joined node.

package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Health tracks which peers are believed alive.
type Health struct {
	client *http.Client

	mu   sync.Mutex
	down map[string]bool // peers marked down
}

// probeTimeout bounds one health probe.
const probeTimeout = 2 * time.Second

// NewHealth returns a tracker with no peer marked down.
func NewHealth() *Health {
	return &Health{
		client: &http.Client{Timeout: probeTimeout},
		down:   map[string]bool{},
	}
}

// Healthy reports whether peer is believed alive. Peers never heard of are
// healthy by default.
func (h *Health) Healthy(peer string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.down[NormalizeURL(peer)]
}

// MarkDown records a peer failure (a failed proxy or probe).
func (h *Health) MarkDown(peer string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.down[NormalizeURL(peer)] = true
}

// MarkUp clears a peer's down state (a successful proxy or probe).
func (h *Health) MarkUp(peer string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.down, NormalizeURL(peer))
}

// DownCount returns how many peers are currently marked down.
func (h *Health) DownCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.down)
}

// Probe GETs peer's /healthz once and updates the table.
func (h *Health) Probe(ctx context.Context, peer string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, NormalizeURL(peer)+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		h.MarkDown(peer)
		return err
	}
	// Drain before closing: a closed-but-undrained body forces the transport
	// to tear the connection down, so every probe round would pay a fresh
	// TCP (and TLS) handshake per peer instead of reusing keep-alive
	// connections. The healthz body is a few bytes; the limit is a backstop
	// against a misbehaving peer streaming forever.
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		h.MarkDown(peer)
		return fmt.Errorf("fleet: %s healthz: HTTP %d", peer, resp.StatusCode)
	}
	h.MarkUp(peer)
	return nil
}

// StartProbing probes every peer (except self) on an interval — the
// recovery path that brings a MarkDown'd peer back once it answers
// /healthz again. members is read each round so the prober follows
// membership reloads. Peers are probed concurrently within a round: probing
// sequentially lets one dead peer's full timeout stretch the round past the
// probe interval, delaying the recovery signal for every healthy peer behind
// it. Returns a stop function.
func (h *Health) StartProbing(self string, members func() []string, interval time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				h.probeRound(self, members())
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// probeRound probes every listed peer except self, concurrently, and waits
// for the round to finish — one round's wall clock is the slowest single
// probe (bounded by the probe timeout), not the sum over peers.
func (h *Health) probeRound(self string, members []string) {
	var wg sync.WaitGroup
	for _, peer := range members {
		if NormalizeURL(peer) == NormalizeURL(self) {
			continue
		}
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), h.client.Timeout)
			defer cancel()
			h.Probe(ctx, peer)
		}(peer)
	}
	wg.Wait()
}
