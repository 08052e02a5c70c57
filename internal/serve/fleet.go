// The fleet layer of the daemon: what turns N independent hap-serve caches
// into one sharded, replicated plan-cache tier. The mechanics live in
// internal/fleet (ring, membership, health, intra-fleet client); this file
// is the serve-side wiring — proxy-on-miss, replication of filled entries,
// the /v1/fleet/entries exchange endpoint, warm-up, and the fleet slices of
// Stats (rendered by /metrics) and /healthz.
//
// Division of labor per request fingerprint (the cache key):
//
//   - The ring owner is the only node that synthesizes the key. Its
//     single-flight group extends the one-synthesis guarantee fleet-wide:
//     every other node proxies its misses to the owner, so a thundering
//     herd spread across the whole fleet still collapses to one search.
//   - Filled entries are pushed to the ReplicaCount-1 ring successors.
//     Replicas serve reads locally (plans are content-addressed and
//     immutable, so replica reads are never stale) and keep the key alive
//     when the owner dies.
//   - When the owner fails its health check or the proxy errors, the miss
//     falls over to the replicas; when every responsible peer is gone, the
//     node synthesizes locally — the fleet degrades to independent caches,
//     never to an outage.

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"

	"hap/internal/fleet"
	"hap/internal/obs"
)

// replicateTimeout bounds one replication push. Pushes move already-encoded
// bytes to a loopback-or-LAN peer; seconds of budget means a wedged peer
// delays a miss response, not a request timeout.
const replicateTimeout = 5 * time.Second

// FleetStats is the fleet slice of Stats.
type FleetStats struct {
	// Peers is the current membership (sorted, self included); PeersDown how
	// many peers health marks down.
	Peers     []string
	PeersDown int
	// MembershipReloads counts peer-list reloads that changed the ring.
	MembershipReloads uint64
	// Proxied counts misses answered by a peer; ProxyErrors failed proxy
	// attempts (each marks the peer down); LocalFallbacks misses owned
	// elsewhere that synthesized here because every peer was unreachable.
	Proxied        uint64
	ProxyErrors    uint64
	LocalFallbacks uint64
	// ForwardedServed counts requests served on behalf of forwarding peers —
	// the owner's side of the proxy traffic.
	ForwardedServed uint64
	// ReplicatedOut / ReplicateErrors / ReplicatedIn count replication
	// pushes sent, failed, and accepted; WarmupEntries counts entries this
	// node received by warm-up streaming.
	ReplicatedOut   uint64
	ReplicateErrors uint64
	ReplicatedIn    uint64
	WarmupEntries   uint64
}

// fleetStats assembles the Stats fleet slice; nil on a standalone daemon.
func (s *Server) fleetStats() *FleetStats {
	f := s.cfg.Fleet
	if f == nil {
		return nil
	}
	return &FleetStats{
		Peers:             f.Members.Peers(),
		PeersDown:         f.Health.DownCount(),
		MembershipReloads: f.Members.Reloads(),
		Proxied:           s.fleetProxied.Load(),
		ProxyErrors:       s.fleetProxyErrors.Load(),
		LocalFallbacks:    s.fleetLocalFallbacks.Load(),
		ForwardedServed:   s.fleetForwardedServed.Load(),
		ReplicatedOut:     s.fleetReplicatedOut.Load(),
		ReplicateErrors:   s.fleetReplicateErrors.Load(),
		ReplicatedIn:      s.fleetReplicatedIn.Load(),
		WarmupEntries:     s.fleetWarmupEntries.Load(),
	}
}

// fleetHealthPayload is the fleet section of /healthz: this node, the
// current membership (sorted, self included) and how many peers health
// marks down.
type fleetHealthPayload struct {
	Self      string   `json:"self"`
	Peers     []string `json:"peers"`
	PeersDown int      `json:"peers_down"`
}

func (s *Server) fleetHealth() *fleetHealthPayload {
	f := s.cfg.Fleet
	if f == nil {
		return nil
	}
	return &fleetHealthPayload{Self: f.Self(), Peers: f.Members.Peers(), PeersDown: f.Health.DownCount()}
}

// proxyPlanRequest forwards a missed request — its body, as received — to
// the key's responsible peers when this node is not the key's owner:
// the owner first, then the ring successors holding replicas. The first peer
// that answers has its response — status, plan headers, body — relayed
// verbatim (plus the answering node's URL in the fleet node header), and
// peers that fail transport are marked down so the next request skips them.
// Returns false when the key is this node's own (or there is no fleet), and
// when no peer could be reached; the caller synthesizes locally either way.
// Peers answering an HTTP error are authoritative (the owner's 422 is the
// fleet's 422) — only transport failures fall through.
//
// Each attempt records a "proxy" span carrying the peer URL; the forward
// ships the trace ID and the span's ID in the trace header, so the peer's
// spans — returned in its response trace header — merge under this hop and
// the cross-node request reads as one tree.
func (s *Server) proxyPlanRequest(w http.ResponseWriter, r *http.Request, body []byte, key string, rt *requestTrace) bool {
	f := s.cfg.Fleet
	if f == nil {
		return false
	}
	owner := f.Owner(key)
	if owner == "" || owner == f.Self() {
		return false
	}
	// Candidates: owner first, then the replica set (minus self — we
	// already missed locally). Unhealthy peers are tried last rather than
	// skipped: health is advisory, and with every candidate marked down a
	// fresh attempt is still cheaper than a local synthesis.
	var healthy, down []string
	for _, peer := range append([]string{owner}, f.ReplicaSet(key)...) {
		if peer == f.Self() || slices.Contains(healthy, peer) || slices.Contains(down, peer) {
			continue
		}
		if f.Health.Healthy(peer) {
			healthy = append(healthy, peer)
		} else {
			down = append(down, peer)
		}
	}
	for _, peer := range append(healthy, down...) {
		ps := rt.span("proxy")
		ps.SetAttrStr("peer", peer)
		resp, err := f.Client.Forward(r.Context(), peer, body, f.Self(), r.Header.Get("If-None-Match"), rt.forwardHeader(ps))
		if err != nil {
			if errors.Is(err, context.Canceled) || r.Context().Err() != nil {
				ps.End()
				// The client went away mid-proxy: no verdict on the peer's
				// health, and the 499 is for the log — nobody reads it.
				s.fail(w, 499, CodeCanceled, "canceled: %v", r.Context().Err())
				return true
			}
			ps.SetAttrStr("error", err.Error())
			ps.End()
			f.Health.MarkDown(peer)
			s.fleetProxyErrors.Add(1)
			continue
		}
		f.Health.MarkUp(peer)
		s.fleetProxied.Add(1)
		rt.merge(resp.Header.Get(obs.SpansHeader))
		rt.setCache("proxy")
		// Retry-After rides along so an owner's admission shed reaches the
		// client intact: the proxying node relays the 429 as authoritative
		// (the owner is up and answering; its refusal is load, not failure)
		// and the client backs off exactly as if it had hit the owner.
		for _, h := range []string{"Content-Type", CacheHeader, "ETag", "Retry-After"} {
			if v := resp.Header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
		w.Header().Set(fleet.NodeHeader, peer)
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		resp.Body.Close()
		ps.End()
		return true
	}
	// Every responsible peer is unreachable: the caller synthesizes locally,
	// so the fleet degrades to N independent caches, not to an outage.
	s.fleetLocalFallbacks.Add(1)
	return false
}

// maybeReplicate pushes a filled entry to the key's ring successors. Only
// the owner replicates: a node that synthesized a key it does not own (a
// forwarded request, or a fallback with the owner down) holds the entry
// locally, and the key's next miss through the owner re-establishes the
// replica set. Pushes are synchronous — milliseconds against a synthesis
// that took seconds, and the e2e invariants stay deterministic. sp, when
// non-nil, parents a "replicate" span with one child per push.
func (s *Server) maybeReplicate(sp *obs.Span, key string, v CachedPlan) {
	f := s.cfg.Fleet
	if f == nil {
		return
	}
	set := f.ReplicaSet(key)
	if len(set) < 2 || set[0] != f.Self() {
		return
	}
	rs := sp.Child("replicate")
	rs.SetAttrInt("peers", int64(len(set)-1))
	e := entryOf(key, v)
	for _, peer := range set[1:] {
		ctx, cancel := context.WithTimeout(context.Background(), replicateTimeout)
		push := rs.Child("replicate_push")
		push.SetAttrStr("peer", peer)
		err := f.Client.Replicate(ctx, peer, e)
		cancel()
		if err != nil {
			push.SetAttrStr("error", err.Error())
			push.End()
			s.fleetReplicateErrors.Add(1)
			continue
		}
		push.End()
		s.fleetReplicatedOut.Add(1)
	}
	rs.End()
}

// handleFleetEntries serves the fleet entry exchange:
//
//	GET  → stream every cached entry as NDJSON, most recently used first
//	       (a warm-up cut short mid-transfer delivered the hottest keys)
//	POST → accept one replicated entry into the local store
//
// The endpoint is mounted even on a standalone daemon so a node joining a
// fleet can warm up from a predecessor that never ran fleet-configured.
func (s *Server) handleFleetEntries(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		s.store.Range(func(key string, v CachedPlan) bool {
			if err := enc.Encode(entryOf(key, v)); err != nil {
				return false // receiver went away; stop streaming
			}
			if flusher != nil {
				// Flush per entry: an interrupted transfer still delivers
				// complete lines, so the receiver keeps a usable prefix.
				flusher.Flush()
			}
			return true
		})
	case http.MethodPost:
		body, ok := s.readBody(w, r)
		if !ok {
			return
		}
		e, err := fleet.DecodeEntry(body)
		if err != nil {
			s.fail(w, http.StatusBadRequest, CodeBadRequest, "bad entry: %v", err)
			return
		}
		s.store.Put(e.Key, planOf(e))
		s.fleetReplicatedIn.Add(1)
		w.WriteHeader(http.StatusNoContent)
	default:
		s.fail(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET or POST required")
	}
}

// WarmFrom streams cached entries from the first peer that answers into the
// local store — how a joining node avoids starting cold. Peers are tried in
// order (self skipped). The peer sends its hottest plans first and each one
// lands below those before it (store.Warm), so the node ends with the
// peer's recency order, and the stream stops at the first entry that no
// longer fits: a smaller cache keeps the peer's hottest plans. A stream cut
// mid-transfer keeps every entry that arrived and reports the partial count
// alongside the error, because each one is a synthesis the node will not
// re-pay. Requires a configured fleet.
func (s *Server) WarmFrom(ctx context.Context, peers []string) (int, error) {
	f := s.cfg.Fleet
	if f == nil {
		return 0, fmt.Errorf("serve: warm-up requires a fleet configuration")
	}
	var lastErr error
	for _, peer := range peers {
		if fleet.NormalizeURL(peer) == f.Self() {
			continue
		}
		n, err := f.Client.StreamEntries(ctx, peer, func(e fleet.Entry) bool {
			return s.store.Warm(e.Key, planOf(e))
		})
		s.fleetWarmupEntries.Add(uint64(n))
		if err == nil {
			return n, nil
		}
		if n > 0 {
			return n, err // partial transfer: keep what arrived
		}
		f.Health.MarkDown(peer)
		lastErr = err
	}
	return 0, lastErr
}

// entryOf and planOf convert between a stored plan and its fleet wire form,
// the key and the bytes. A plan file on disk is the same record. The
// receiving store derives the ETag from the plan bytes, as it does for every
// Put. The plan source does not travel: a received entry is re-solved on its
// owner.
func entryOf(key string, v CachedPlan) fleet.Entry {
	return fleet.Entry{Key: key, Bin: v.Bin}
}

func planOf(e fleet.Entry) CachedPlan {
	return CachedPlan{Bin: e.Bin}
}
