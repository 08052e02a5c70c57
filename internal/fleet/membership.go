// Fleet membership: who the peers are, and the ring built over them. The
// member list is the union of the node's own advertise URL, a static seed
// list (-peers), and an optional peers file (-peers-file) re-read on demand
// (SIGHUP) or by mtime polling — a restart-free way to grow or shrink the
// fleet. Readers take the current ring with one atomic load, so a reload
// mid-traffic swaps routing for new requests without blocking in-flight
// ones.

package fleet

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Membership maintains the current peer list and its consistent-hash ring.
type Membership struct {
	self   string
	static []string
	file   string

	ring    atomic.Pointer[Ring]
	reloads atomic.Uint64 // successful reloads that changed the ring

	mu sync.Mutex // serializes Reload and guards the poll stat below
	// lastMtime/lastSize snapshot the peers file's stat at the last reload.
	// The poller compares both: filesystems round mtimes (coarsely enough
	// that two rewrites can land in one tick), so mtime alone misses a
	// same-timestamp rewrite that changed the contents — the size catches
	// the common case. Priming them at construction also stops the first
	// poll tick from reloading a file nobody touched (the zero-valued
	// lastMtime never equals a real mtime).
	lastMtime time.Time
	lastSize  int64
}

// NewMembership builds the member list from self, the static peers, and the
// optional peers file (read immediately; an unreadable file at construction
// is an error so a typoed -peers-file fails loudly instead of silently
// running a one-node fleet).
func NewMembership(self string, static []string, file string) (*Membership, error) {
	m := &Membership{self: NormalizeURL(self), static: static, file: file}
	if file != "" {
		if _, err := os.Stat(file); err != nil {
			return nil, fmt.Errorf("fleet: peers file: %w", err)
		}
	}
	if _, err := m.Reload(); err != nil {
		return nil, err
	}
	return m, nil
}

// Self returns this node's own advertise URL (normalized).
func (m *Membership) Self() string { return m.self }

// Ring returns the current ring. Never nil after NewMembership.
func (m *Membership) Ring() *Ring { return m.ring.Load() }

// Peers returns the current members, sorted, including self.
func (m *Membership) Peers() []string { return m.Ring().Members() }

// Reloads counts the reloads that actually changed the membership.
func (m *Membership) Reloads() uint64 { return m.reloads.Load() }

// Reload re-reads the peers file (when configured) and rebuilds the ring,
// reporting whether membership changed. Safe to call concurrently with
// readers and with itself; serve traffic keeps flowing on the old ring
// until the swap.
func (m *Membership) Reload() (changed bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	members := []string{m.self}
	members = append(members, m.static...)
	if m.file != "" {
		fromFile, err := readPeersFile(m.file)
		if err != nil {
			return false, err
		}
		members = append(members, fromFile...)
		// Snapshot the stat the content we just read corresponds to (best
		// effort — a racing rewrite moves the mtime again and the next poll
		// tick re-detects it).
		if info, err := os.Stat(m.file); err == nil {
			m.lastMtime = info.ModTime()
			m.lastSize = info.Size()
		}
	}
	next := NewRing(members)
	prev := m.ring.Load()
	if prev != nil && slices.Equal(prev.Members(), next.Members()) {
		return false, nil
	}
	m.ring.Store(next)
	if prev != nil {
		m.reloads.Add(1)
	}
	return true, nil
}

// StartPolling watches the peers file's mtime every interval and reloads on
// change — the fsnotify-style path for fleets that cannot signal the
// daemon. Returns a stop function; a Membership without a file polls
// nothing.
func (m *Membership) StartPolling(interval time.Duration) (stop func()) {
	if m.file == "" {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				info, err := os.Stat(m.file)
				if err != nil {
					continue // transient editor rename; next tick retries
				}
				m.mu.Lock()
				dirty := info.ModTime() != m.lastMtime || info.Size() != m.lastSize
				m.mu.Unlock()
				if dirty {
					// Reload re-reads the file and re-snapshots its stat.
					m.Reload()
				}
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// readPeersFile reads and parses a peers file.
func readPeersFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: peers file: %w", err)
	}
	return parsePeers(data), nil
}

// parsePeers parses a peers file's contents: one base URL per line, each
// trimmed of surrounding space, blank lines and #-comments ignored.
func parsePeers(data []byte) []string {
	var peers []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		peers = append(peers, line)
	}
	return peers
}
