// Fleet bundles one node's view of the cluster: its identity, the
// membership list and ring, peer health, the intra-fleet client, and the
// replication factor. The serve layer asks it three questions per request —
// who owns this key, who replicates it, and is that peer healthy — and uses
// the client for the resulting proxy, replication, and warm-up traffic.

package fleet

import (
	"fmt"
	"time"
)

// Config builds a Fleet.
type Config struct {
	// Self is this node's advertise base URL (how peers reach it). It is
	// always a ring member.
	Self string
	// Peers is the static seed list of peer base URLs (may include Self).
	Peers []string
	// PeersFile optionally names a file with one peer URL per line,
	// re-read on Reload (SIGHUP) and by polling.
	PeersFile string
	// Replicas is the total number of copies of each filled entry, owner
	// included (0 = DefaultReplicas). Clamped to the fleet size.
	Replicas int
}

// DefaultReplicas is the default total copies per entry (owner + 1).
const DefaultReplicas = 2

// Intervals of the background pollers Start launches: the peers file is
// checked for changes every pollInterval (SIGHUP reloads it at once), and
// every peer's /healthz is probed every probeInterval.
const (
	pollInterval  = 10 * time.Second
	probeInterval = 5 * time.Second
)

// Fleet is one node's cluster view. Create with New; Start launches the
// background pollers and Stop tears them down.
type Fleet struct {
	self     string
	replicas int

	Members *Membership
	Health  *Health
	Client  *Client

	stops []func()
}

// New validates cfg and builds the node's fleet view. Self is required; a
// fleet of one (no peers yet) is legal — everything routes locally until
// the peers file names someone else.
func New(cfg Config) (*Fleet, error) {
	if NormalizeURL(cfg.Self) == "" {
		return nil, fmt.Errorf("fleet: Self (this node's advertise URL) is required")
	}
	members, err := NewMembership(cfg.Self, cfg.Peers, cfg.PeersFile)
	if err != nil {
		return nil, err
	}
	replicas := cfg.Replicas
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Fleet{
		self:     NormalizeURL(cfg.Self),
		replicas: replicas,
		Members:  members,
		Health:   NewHealth(),
		Client:   NewClient(),
	}, nil
}

// Self returns this node's advertise URL.
func (f *Fleet) Self() string { return f.self }

// ReplicaCount returns the configured copies per entry, owner included.
func (f *Fleet) ReplicaCount() int { return f.replicas }

// Owner returns the member owning key on the current ring.
func (f *Fleet) Owner(key string) string { return f.Members.Ring().Owner(key) }

// ReplicaSet returns the members holding key — owner first, then the ring
// successors — up to the replication factor.
func (f *Fleet) ReplicaSet(key string) []string {
	return f.Members.Ring().Successors(key, f.replicas)
}

// Start launches membership polling and health probing. Call Stop to tear
// both down.
func (f *Fleet) Start() {
	f.stops = append(f.stops, f.Members.StartPolling(pollInterval))
	f.stops = append(f.stops, f.Health.StartProbing(f.self, f.Members.Peers, probeInterval))
}

// Stop halts the background pollers started by Start.
func (f *Fleet) Stop() {
	for _, stop := range f.stops {
		stop()
	}
	f.stops = nil
}
