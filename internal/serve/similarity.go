// Donor lookup for incremental synthesis: how a cache miss finds a similar
// cached plan to seed its search from. Every locally synthesized entry's
// planSource carries its graph's segment sub-fingerprints; a miss looks up
// the nearest registered graph under the same cluster and planner options,
// and the planner seeds its search from that donor's plan. The lookup is
// advisory end to end: a donor that is too far away structurally
// (synth.BuildSeed enforces the distance cutoff), fails to decode, or whose
// plan has left every store simply degrades the miss to a cold synthesis.

package serve

import (
	"bytes"
	"context"

	"hap"
	"hap/internal/graph"
)

// nearest returns the registered entry sharing the most segment
// sub-fingerprints with target among entries at the same cluster and options
// coordinates, excluding selfKey, as a donor whose plan bytes are still to be
// resolved. Candidates sharing less than half of the target's segments are not
// worth a donor replay and are skipped (the zero donor when none qualifies).
// Ties break toward the lexicographically smallest key so the choice is
// deterministic across scans.
func (t *telemetryState) nearest(target *planSource, selfKey string) (best donor) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for key, e := range t.sources {
		if key == selfKey || e.specFP != target.specFP || e.optsSig != target.optsSig {
			continue
		}
		shared := graph.SharedSubFingerprints(target.subs, e.subs)
		if 2*shared < len(target.subs) {
			continue
		}
		if shared > best.shared || (shared == best.shared && best.key != "" && key < best.key) {
			best = donor{key: key, graphJSON: e.graphJSON, shared: shared}
		}
	}
	return best
}

// nearestDonor locates the nearest donor for a miss on target and resolves
// its plan bytes: local store first, then — on a fleet node — the donor key's
// ring owner, since the registry can briefly outlive local residency (an
// eviction racing the lookup) while the owner still holds the entry. Every
// failure path leaves them empty and the miss synthesizes cold.
func (s *Server) nearestDonor(ctx context.Context, target *planSource, selfKey string) donor {
	d := s.telemetry.nearest(target, selfKey)
	if d.key == "" {
		return d
	}
	if v, ok := s.store.Get(d.key); ok {
		d.planJSON = v.Plan
	} else if f := s.cfg.Fleet; f != nil {
		if owner := f.Owner(d.key); owner != "" && owner != f.Self() {
			if ent, err := f.Client.FetchEntry(ctx, owner, d.key); err == nil {
				d.planJSON = ent.Plan
			}
		}
	}
	return d
}

// decodeDonor rebinds a donor plan to a freshly decoded copy of its graph.
func decodeDonor(graphJSON, planJSON []byte) (*graph.Graph, *hap.Plan, error) {
	dg, err := graph.Decode(bytes.NewReader(graphJSON))
	if err != nil {
		return nil, nil, err
	}
	dp, err := hap.ReadProgram(bytes.NewReader(planJSON), dg)
	if err != nil {
		return nil, nil, err
	}
	return dg, dp, nil
}
