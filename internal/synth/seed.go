// Incremental synthesis: seeding a search from a donor plan.
//
// BuildSeed aligns the donor graph with the target graph (graph.StructuralDiff),
// reads the donor program against the donor's background theory
// (theory.Check) to recover the decision sequence that produced it — which
// Hoare triple computed each node, which collective moved each tensor — and
// translates every decision whose node survives the alignment onto the
// target theory. The result seeds
// the beam two ways:
//
//   - prefix fast-forward: the translated decisions are applied in donor
//     order directly onto the root state until one fails (changed-region
//     node, inapplicable triple, out-of-schedule computation), so the search
//     starts mid-program instead of empty. A zero diff replays the entire
//     donor program and skips the search outright.
//   - pinning: past the fast-forward point, a node (or tensor) with a
//     translated decision emits only that candidate when it is applicable,
//     collapsing the per-level branching to the changed region's.
//
// Pins are suggestions, not trust: every pinned decision still passes the
// same applicability checks as a searched one, so a stale or mistranslated
// pin degrades to ordinary search, never to a wrong program.

package synth

import (
	"hap/internal/collective"
	"hap/internal/dist"
	"hap/internal/graph"
	"hap/internal/theory"
)

// DefaultMaxSeedDistance is the normalized-edit-size threshold beyond which
// seeding is pointless: too little of the donor plan survives to beat cold
// synthesis, so BuildSeed returns nil and callers fall back.
const DefaultMaxSeedDistance = 0.25

// pinnedComm is one translated communication decision.
type pinnedComm struct {
	valid bool
	coll  collective.Kind
	dim   int
	dim2  int
}

// seedStep is one translated donor decision, in donor program order.
type seedStep struct {
	comm   bool
	mapped bool         // false: the decision's node lies in the changed subgraph
	node   graph.NodeID // target-graph id (computed node, or communicated ref)
	tr     *theory.Triple
	cc     pinnedComm
}

// Seed carries a donor plan's decisions translated onto a target theory.
type Seed struct {
	// Distance is the normalized edit size between donor and target graphs
	// (0 = structurally identical).
	Distance float64

	steps []seedStep
	// compPin is by target node id; nil = unpinned. The beam's hot loop
	// swaps a node's candidate list for the window compPin[id:id+1], so a
	// pin costs no allocation of its own.
	compPin []*theory.Triple
	commPin []pinnedComm // by target ref id
}

// Steps reports how many donor decisions the seed carries (mapped or not).
func (sd *Seed) Steps() int { return len(sd.steps) }

// BuildSeed builds a search seed for target graph g (with background theory
// th) from a donor plan. Returns nil — callers fall back to cold synthesis —
// when the structural distance exceeds maxDistance (≤0 means
// DefaultMaxSeedDistance), when the donor graph fails graph.Validate, or
// when the donor program fails theory.Check against its own theory, whose
// reading the seed translates. donorTh may be nil; it is built from
// the donor graph on demand (or shared with th when the graphs are one
// object).
func BuildSeed(donorG *graph.Graph, donorProg *dist.Program, donorTh *theory.Theory, g *graph.Graph, th *theory.Theory, maxDistance float64) *Seed {
	if donorG == nil || donorProg == nil || g == nil || th == nil {
		return nil
	}
	if maxDistance <= 0 {
		maxDistance = DefaultMaxSeedDistance
	}

	var d *graph.Diff
	if donorG != g {
		if donorG.Validate() != nil {
			return nil
		}
		d = graph.StructuralDiff(donorG, g)
		if d.Norm > maxDistance {
			return nil
		}
	}
	if donorTh == nil {
		if donorG == g {
			donorTh = th
		} else {
			donorTh = theory.New(donorG)
		}
	}

	reading := make([]*theory.Triple, donorG.NumNodes())
	if _, err := theory.Check(donorTh, donorProg, reading); err != nil {
		return nil
	}

	sd := &Seed{
		compPin: make([]*theory.Triple, g.NumNodes()),
		commPin: make([]pinnedComm, g.NumNodes()),
		steps:   make([]seedStep, 0, len(donorProg.Instrs)),
	}
	if d != nil {
		sd.Distance = d.Norm
	}
	mapID := func(a graph.NodeID) (graph.NodeID, bool) {
		if d == nil {
			return a, true
		}
		return d.MapAB(a)
	}
	for i := range donorProg.Instrs {
		in := &donorProg.Instrs[i]
		if !in.IsComm && in.Op.IsLeaf() {
			continue // a leaf loader is no decision of its own
		}
		tid, ok := mapID(in.Ref)
		if !ok {
			sd.steps = append(sd.steps, seedStep{comm: in.IsComm})
			continue
		}
		if in.IsComm {
			cc := pinnedComm{valid: true, coll: in.Coll, dim: in.Dim, dim2: in.Dim2}
			sd.commPin[tid] = cc
			sd.steps = append(sd.steps, seedStep{comm: true, mapped: true, node: tid, cc: cc})
			continue
		}
		tr := matchTriple(reading[in.Ref], th.ByNode[tid], mapID)
		if tr == nil {
			sd.steps = append(sd.steps, seedStep{})
			continue
		}
		sd.compPin[tid] = tr
		sd.steps = append(sd.steps, seedStep{mapped: true, node: tid, tr: tr})
	}
	return sd
}

// matchTriple finds the unique target triple structurally equal to the donor
// triple under the id mapping: same output form, same flop scaling, and
// preconditions on the *aligned* input tensors. Nil when none or several
// match — the node stays unpinned and is searched normally.
func matchTriple(donor *theory.Triple, candidates []*theory.Triple, mapID func(graph.NodeID) (graph.NodeID, bool)) *theory.Triple {
	var found *theory.Triple
	for _, tt := range candidates {
		tPre, tLeaf := tt.Pre(), tt.LeafPre()
		dPre, dLeaf := donor.Pre(), donor.LeafPre()
		if tt.FlopsScaled != donor.FlopsScaled ||
			tt.Out.Kind != donor.Out.Kind || tt.Out.Dim != donor.Out.Dim ||
			len(tPre) != len(dPre) || len(tLeaf) != len(dLeaf) {
			continue
		}
		ok := true
		for i, p := range dPre {
			m, mok := mapID(p.Ref)
			if !mok || m != tPre[i].Ref || p.Kind != tPre[i].Kind || p.Dim != tPre[i].Dim {
				ok = false
				break
			}
		}
		for i, p := range dLeaf {
			if !ok {
				break
			}
			m, mok := mapID(p.Ref)
			if !mok || m != tLeaf[i].Ref || p.Kind != tLeaf[i].Kind || p.Dim != tLeaf[i].Dim {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if found != nil {
			return nil // ambiguous: refuse to pin
		}
		found = tt
	}
	return found
}

// fastForward applies the seed's decision prefix onto root, in donor order,
// until a step fails: an unmapped (changed-region) decision, a computation
// out of the beam's strict schedule, or an inapplicable pin. Every applied
// step goes through the same applyComp/applyComm as searched decisions, so
// the returned state is exactly what the beam would have built had it chosen
// those candidates. Returns the advanced state and whether the entire donor
// program replayed (the state is then complete — no search needed).
func (sy *Synthesizer) fastForward(root *state) (*state, int, bool) {
	sd := sy.opt.Seed
	s := root
	applied := 0
	for _, st := range sd.steps {
		if !st.mapped {
			break
		}
		var ns *state
		if st.comm {
			ns = sy.applySeedComm(s, st)
		} else if int(s.nextReq) < len(sy.reqNodes) && sy.reqNodes[s.nextReq] == st.node &&
			!(sy.opt.DisableSFB && theory.IsSFB(sy.g, st.tr)) {
			if ns = sy.applyComp(s, st.tr); ns != nil {
				ns.nextReq = s.nextReq + 1
			}
		}
		if ns == nil {
			break
		}
		// The step is on the trail; the state it left goes back whole.
		sy.retire(s)
		s = ns
		applied++
	}
	return s, applied, applied == len(sd.steps) && s.complete
}

// applySeedComm validates and applies one pinned communication on s: the
// pinned collective must be in the tensor's segment — live, uncommunicated,
// legal for its current properties, the same definition the search
// enumerates. Nil when the decision does not fit the state.
func (sy *Synthesizer) applySeedComm(s *state, st seedStep) *state {
	sy.segBuf = sy.appendSegment(s, st.node, sy.segBuf[:0])
	for _, e := range sy.segBuf {
		if e.cc.matches(st.cc) {
			return sy.applyComm(s, e.cc)
		}
	}
	return nil
}
