// Incremental synthesis: seeding a search from a donor plan.
//
// BuildSeed aligns the donor graph with the target graph (graph.StructuralDiff),
// replays the donor program against the donor's background theory to recover
// the decision sequence that produced it — which Hoare triple computed each
// node, which collective moved each tensor — and translates every decision
// whose node survives the alignment onto the target theory. The result seeds
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

// replayBudget bounds the backtracking replay: distinct triples can lower to
// identical instruction bytes (the serialized program is all we have), and
// the replayer tries each consistent reading. Real programs resolve in one
// pass; the bound is a guard against pathological wire graphs.
const replayBudget = 10_000

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

	steps   []seedStep
	compPin []*theory.Triple // by target node id; nil = unpinned
	// compPinOne[id] is a prebuilt one-element slice over compPin[id], so
	// the beam's hot loop swaps candidate lists without allocating.
	compPinOne [][]*theory.Triple
	commPin    []pinnedComm // by target ref id
}

// Steps reports how many donor decisions the seed carries (mapped or not).
func (sd *Seed) Steps() int { return len(sd.steps) }

// donorStep is one decision recovered by replaying the donor program.
type donorStep struct {
	comm bool
	node graph.NodeID // donor-graph id
	tr   *theory.Triple
	coll collective.Kind
	dim  int
	dim2 int
}

// replayState mirrors the synthesizer's search state along the donor path:
// same property accumulation, same leaf placements, same liveness pruning.
// The mirror must be exact — a superset of the search's property set would
// let an inconsistent reading of the program replay "successfully" and
// produce pins the real search never chose.
type replayState struct {
	props        map[theory.Property]bool
	placed       []int8
	computed     []bool
	communicated []bool
}

func newReplayState(n int) *replayState {
	rs := &replayState{
		props:        map[theory.Property]bool{},
		placed:       make([]int8, n),
		computed:     make([]bool, n),
		communicated: make([]bool, n),
	}
	for i := range rs.placed {
		rs.placed[i] = unplaced
	}
	return rs
}

func (rs *replayState) clone() *replayState {
	c := &replayState{
		props:        make(map[theory.Property]bool, len(rs.props)),
		placed:       append([]int8(nil), rs.placed...),
		computed:     append([]bool(nil), rs.computed...),
		communicated: append([]bool(nil), rs.communicated...),
	}
	for p := range rs.props {
		c.props[p] = true
	}
	return c
}

// replayer replays a donor program instruction-by-instruction.
type replayer struct {
	g      *graph.Graph
	th     *theory.Theory
	isOut  []bool
	budget int
}

// pruneDead mirrors Synthesizer.pruneDead on the replay state.
func (r *replayer) pruneDead(rs *replayState, justComputed graph.NodeID) {
	check := func(u graph.NodeID) {
		if r.isOut[u] {
			return
		}
		for _, c := range r.th.Consumers[u] {
			if r.th.Required[c] && !rs.computed[c] {
				return
			}
		}
		for p := range rs.props {
			if p.Ref == u {
				delete(rs.props, p)
			}
		}
	}
	for _, u := range r.g.Node(justComputed).Inputs {
		if !r.g.Node(u).Kind.IsLeaf() {
			check(u)
		}
	}
	check(justComputed)
}

// commTransition returns the property a collective consumes and the one it
// establishes — the inverse of commCandidates.
func commTransition(in dist.Instruction) (src, res theory.Property, ok bool) {
	switch in.Coll {
	case collective.AllReduce:
		return theory.Pending(in.Ref), theory.Id(in.Ref), true
	case collective.ReduceScatter:
		return theory.Pending(in.Ref), theory.Shard(in.Ref, in.Dim), true
	case collective.PaddedAllGather, collective.GroupedBroadcast:
		return theory.Shard(in.Ref, in.Dim), theory.Id(in.Ref), true
	case collective.AllToAll:
		return theory.Shard(in.Ref, in.Dim), theory.Shard(in.Ref, in.Dim2), true
	}
	return theory.Property{}, theory.Property{}, false
}

// replay consumes instrs[i:], appending recovered decisions to steps; it
// backtracks over ambiguous computation readings. Returns the full decision
// list, or nil when no consistent reading exists (or the budget ran out).
func (r *replayer) replay(rs *replayState, instrs []dist.Instruction, steps []donorStep) []donorStep {
	for len(instrs) > 0 {
		r.budget--
		if r.budget < 0 {
			return nil
		}
		in := instrs[0]
		switch {
		case in.IsComm:
			src, res, ok := commTransition(in)
			if !ok || rs.communicated[in.Ref] || !rs.props[src] || rs.props[res] {
				return nil
			}
			rs.communicated[in.Ref] = true
			rs.props[res] = true
			steps = append(steps, donorStep{comm: true, node: in.Ref, coll: in.Coll, dim: in.Dim, dim2: in.Dim2})
			instrs = instrs[1:]

		case in.Op.IsLeaf():
			// A fused leaf loader: record the placement it establishes.
			want := replicated
			if in.ShardDim >= 0 {
				want = int8(in.ShardDim)
			}
			if got := rs.placed[in.Ref]; got != unplaced && got != want {
				return nil
			}
			rs.placed[in.Ref] = want
			instrs = instrs[1:]

		default:
			// A computation: find the triples this instruction can be a
			// lowering of whose preconditions hold right now.
			id := in.Ref
			if rs.computed[id] {
				return nil
			}
			var matches []*theory.Triple
			for _, tr := range r.th.ByNode[id] {
				ti := tr.Instr(r.g)
				if ti.FlopsScaled != in.FlopsScaled || ti.ShardDim != in.ShardDim {
					continue
				}
				if !r.applicable(rs, tr) {
					continue
				}
				matches = append(matches, tr)
			}
			if len(matches) == 0 {
				return nil
			}
			if len(matches) > 1 {
				// Ambiguous reading: branch. First consistent full replay wins;
				// any two differ only in property bookkeeping, never in bytes.
				for _, tr := range matches {
					branch := rs.clone()
					r.applyComp(branch, id, tr)
					if out := r.replay(branch, instrs[1:], append(steps, donorStep{node: id, tr: tr})); out != nil {
						return out
					}
					if r.budget < 0 {
						return nil
					}
				}
				return nil
			}
			r.applyComp(rs, id, matches[0])
			steps = append(steps, donorStep{node: id, tr: matches[0]})
			instrs = instrs[1:]
		}
	}
	return steps
}

// applicable mirrors Synthesizer.compApplicable, except that leaf placements
// must already be set: the donor program's loaders precede their consumer.
func (r *replayer) applicable(rs *replayState, tr *theory.Triple) bool {
	for _, p := range tr.Pre {
		if !rs.props[p] {
			return false
		}
	}
	for _, p := range tr.LeafPre {
		want := replicated
		if p.Kind == theory.Gather {
			want = int8(p.Dim)
		}
		if rs.placed[p.Ref] != want {
			return false
		}
	}
	return true
}

func (r *replayer) applyComp(rs *replayState, id graph.NodeID, tr *theory.Triple) {
	rs.computed[id] = true
	rs.props[tr.Out] = true
	r.pruneDead(rs, id)
}

// BuildSeed builds a search seed for target graph g (with background theory
// th) from a donor plan. Returns nil — callers fall back to cold synthesis —
// when the structural distance exceeds maxDistance (≤0 means
// DefaultMaxSeedDistance), or when the donor program does not replay
// consistently against its own theory. donorTh may be nil; it is built from
// the donor graph on demand (or shared with th when the graphs are one
// object, the drift-replan case).
func BuildSeed(donorG *graph.Graph, donorProg *dist.Program, donorTh *theory.Theory, g *graph.Graph, th *theory.Theory, maxDistance float64) *Seed {
	if donorG == nil || donorProg == nil || g == nil || th == nil {
		return nil
	}
	if maxDistance <= 0 {
		maxDistance = DefaultMaxSeedDistance
	}

	var d *graph.Diff
	if donorG != g {
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

	r := &replayer{g: donorG, th: donorTh, isOut: make([]bool, donorG.NumNodes()), budget: replayBudget}
	for _, o := range donorTh.Outputs {
		r.isOut[o.Ref] = true
	}
	donorSteps := r.replay(newReplayState(donorG.NumNodes()), donorProg.Instrs, nil)
	if donorSteps == nil {
		return nil
	}

	sd := &Seed{
		compPin:    make([]*theory.Triple, g.NumNodes()),
		compPinOne: make([][]*theory.Triple, g.NumNodes()),
		commPin:    make([]pinnedComm, g.NumNodes()),
		steps:      make([]seedStep, 0, len(donorSteps)),
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
	for _, ds := range donorSteps {
		tid, ok := mapID(ds.node)
		if !ok {
			sd.steps = append(sd.steps, seedStep{comm: ds.comm})
			continue
		}
		if ds.comm {
			cc := pinnedComm{valid: true, coll: ds.coll, dim: ds.dim, dim2: ds.dim2}
			sd.commPin[tid] = cc
			sd.steps = append(sd.steps, seedStep{comm: true, mapped: true, node: tid, cc: cc})
			continue
		}
		tr := matchTriple(ds.tr, th.ByNode[tid], mapID)
		if tr == nil {
			sd.steps = append(sd.steps, seedStep{})
			continue
		}
		sd.compPin[tid] = tr
		sd.compPinOne[tid] = []*theory.Triple{tr}
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
		if tt.FlopsScaled != donor.FlopsScaled ||
			tt.Out.Kind != donor.Out.Kind || tt.Out.Dim != donor.Out.Dim ||
			len(tt.Pre) != len(donor.Pre) || len(tt.LeafPre) != len(donor.LeafPre) {
			continue
		}
		ok := true
		for i, p := range donor.Pre {
			m, mok := mapID(p.Ref)
			if !mok || m != tt.Pre[i].Ref || p.Kind != tt.Pre[i].Kind || p.Dim != tt.Pre[i].Dim {
				ok = false
				break
			}
		}
		for i, p := range donor.LeafPre {
			if !ok {
				break
			}
			m, mok := mapID(p.Ref)
			if !mok || m != tt.LeafPre[i].Ref || p.Kind != tt.LeafPre[i].Kind || p.Dim != tt.LeafPre[i].Dim {
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
			!(sy.opt.DisableSFB && sy.isSFBTriple(st.tr)) {
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
