// Donor lookup for incremental synthesis: how a cache miss finds a similar
// cached plan to seed its search from. Every locally synthesized entry's
// planSource carries its graph's segment sub-fingerprints; a miss looks up
// the nearest such entry under the same cluster and planner options, and the
// planner seeds its search from that donor's plan. The lookup is advisory end
// to end: a donor that is too far away structurally (synth.BuildSeed enforces
// the distance cutoff), fails to decode, or is evicted before its plan is
// read simply degrades the miss to a cold synthesis.

package serve

import "hap/internal/graph"

// nearestDonor returns the stored entry sharing the most segment
// sub-fingerprints with target among locally synthesized entries at the same
// cluster and options coordinates, excluding selfKey. Candidates sharing less
// than half of the target's segments are not worth a donor replay and are
// skipped (the zero donor when none qualifies). Ties break toward the
// lexicographically smallest key so the choice is deterministic across scans.
//
// The scan reads a snapshot of the store, so no sub-fingerprint comparison
// runs under the LRU's lock and a hit never waits on it; the chosen donor's
// plan is then read through Get, which refreshes its recency. A donor evicted
// in between leaves the plan empty, and the miss searches cold.
func (s *Server) nearestDonor(target *planSource, selfKey string) (best donor) {
	s.store.Range(func(key string, v CachedPlan) bool {
		e := v.src
		if e == nil || key == selfKey || e.specFP != target.specFP || e.optsSig != target.optsSig {
			return true
		}
		shared := graph.SharedSubFingerprints(target.subs, e.subs)
		if 2*shared < len(target.subs) {
			return true
		}
		if shared > best.shared || (shared == best.shared && best.key != "" && key < best.key) {
			best = donor{key: key, g: e.g, shared: shared}
		}
		return true
	})
	if best.key != "" {
		if v, ok := s.store.Get(best.key); ok {
			best.bin = v.Bin
		}
	}
	return best
}
