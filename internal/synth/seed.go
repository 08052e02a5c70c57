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

	steps []seedStep
	// compPin is by target node id; nil = unpinned. The beam's hot loop
	// swaps a node's candidate list for the window compPin[id:id+1], so a
	// pin costs no allocation of its own.
	compPin []*theory.Triple
	commPin []pinnedComm // by target ref id
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
//
// A tensor's properties are one mask word (see propBit), so dropping a dead
// tensor's properties is one store and cloning a branch copies slices.
type replayState struct {
	props        []uint64
	placed       []int8
	computed     []bool
	communicated []bool
}

// maxReplayRank is the widest tensor a mask word holds every Gather
// property of: bits 0 and 1 are Identity and Reduce, bits 2..63 the shard
// dimensions. A donor with a wider tensor is not replayed (BuildSeed
// returns nil).
const maxReplayRank = 62

// propBit is p's bit in its tensor's mask word, 1<<p.Slot(). Every
// property the replay sets or tests fits: a triple's dimensions lie below
// its tensor's rank (at most maxReplayRank), and commTransition refuses a
// collective on a dimension past it.
func propBit(p theory.Property) uint64 { return 1 << uint(p.Slot()) }

func (rs *replayState) has(p theory.Property) bool { return rs.props[p.Ref]&propBit(p) != 0 }
func (rs *replayState) set(p theory.Property)      { rs.props[p.Ref] |= propBit(p) }

func newReplayState(n int) *replayState {
	rs := &replayState{
		props:        make([]uint64, n),
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
	return &replayState{
		props:        append([]uint64(nil), rs.props...),
		placed:       append([]int8(nil), rs.placed...),
		computed:     append([]bool(nil), rs.computed...),
		communicated: append([]bool(nil), rs.communicated...),
	}
}

// replayer replays a donor program instruction-by-instruction.
type replayer struct {
	g      *graph.Graph
	th     *theory.Theory
	isOut  []bool
	budget int
	// matches is a stack of candidate readings: each computation pushes
	// its readings above those of the ambiguous computations it branches
	// under, and pops them when it is done.
	matches []*theory.Triple
}

// newReplayer returns a replayer of programs for g with the full budget, or
// nil when a tensor of g is wider than the mask words hold.
func newReplayer(g *graph.Graph, th *theory.Theory) *replayer {
	for i := range g.Nodes {
		if len(g.Nodes[i].Shape) > maxReplayRank {
			return nil
		}
	}
	r := &replayer{g: g, th: th, isOut: make([]bool, g.NumNodes()), budget: replayBudget}
	for _, o := range th.Outputs {
		r.isOut[o.Ref] = true
	}
	return r
}

// dead mirrors Synthesizer.dead on the replay state: u is no required
// output and every required consumer of u is computed.
func (r *replayer) dead(rs *replayState, u graph.NodeID) bool {
	if r.isOut[u] {
		return false
	}
	for _, c := range r.th.Consumers[u] {
		if r.th.Required[c] && !rs.computed[c] {
			return false
		}
	}
	return true
}

// pruneDead mirrors Synthesizer.pruneDead on the replay state.
func (r *replayer) pruneDead(rs *replayState, justComputed graph.NodeID) {
	for _, u := range r.g.Node(justComputed).Inputs {
		if !r.g.Node(u).Kind.IsLeaf() && r.dead(rs, u) {
			rs.props[u] = 0
		}
	}
	if r.dead(rs, justComputed) {
		rs.props[justComputed] = 0
	}
}

// commTransition returns the property a collective consumes and the one it
// establishes — the inverse of commCandidates. A collective on a dimension
// the tensor (of the given rank) does not have is no candidate.
func commTransition(in dist.Instruction, rank int) (src, res theory.Property, ok bool) {
	dim := func(d int) bool { return d >= 0 && d < rank }
	switch in.Coll {
	case collective.AllReduce:
		return theory.Pending(in.Ref), theory.Id(in.Ref), true
	case collective.ReduceScatter:
		return theory.Pending(in.Ref), theory.Shard(in.Ref, in.Dim), dim(in.Dim)
	case collective.PaddedAllGather, collective.GroupedBroadcast:
		return theory.Shard(in.Ref, in.Dim), theory.Id(in.Ref), dim(in.Dim)
	case collective.AllToAll:
		return theory.Shard(in.Ref, in.Dim), theory.Shard(in.Ref, in.Dim2), dim(in.Dim) && dim(in.Dim2)
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
		if in.Ref < 0 || int(in.Ref) >= len(rs.computed) {
			return nil
		}
		switch {
		case in.IsComm:
			src, res, ok := commTransition(in, len(r.g.Node(in.Ref).Shape))
			if !ok || rs.communicated[in.Ref] || !rs.has(src) || rs.has(res) {
				return nil
			}
			rs.communicated[in.Ref] = true
			rs.set(res)
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
			base := len(r.matches)
			for _, tr := range r.th.ByNode[id] {
				ti := tr.Instr(r.g)
				if ti.FlopsScaled != in.FlopsScaled || ti.ShardDim != in.ShardDim {
					continue
				}
				if !r.applicable(rs, tr) {
					continue
				}
				r.matches = append(r.matches, tr)
			}
			matches := r.matches[base:]
			r.matches = r.matches[:base]
			if len(matches) == 0 {
				return nil
			}
			if len(matches) > 1 {
				// Ambiguous reading: branch. First consistent full replay wins;
				// any two differ only in property bookkeeping, never in bytes.
				// The branches push their own readings above these.
				r.matches = r.matches[:base+len(matches)]
				var out []donorStep
				for _, tr := range matches {
					branch := rs.clone()
					r.applyComp(branch, id, tr)
					if out = r.replay(branch, instrs[1:], append(steps, donorStep{node: id, tr: tr})); out != nil || r.budget < 0 {
						break
					}
				}
				r.matches = r.matches[:base]
				return out
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
	for _, p := range tr.Pre() {
		if !rs.has(p) {
			return false
		}
	}
	for _, p := range tr.LeafPre() {
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
	rs.set(tr.Out)
	r.pruneDead(rs, id)
}

// BuildSeed builds a search seed for target graph g (with background theory
// th) from a donor plan. Returns nil — callers fall back to cold synthesis —
// when the structural distance exceeds maxDistance (≤0 means
// DefaultMaxSeedDistance), or when the donor program does not replay
// consistently against its own theory. donorTh may be nil; it is built from
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

	r := newReplayer(donorG, donorTh)
	if r == nil {
		return nil
	}
	donorSteps := r.replay(newReplayState(donorG.NumNodes()), donorProg.Instrs, make([]donorStep, 0, len(donorProg.Instrs)))
	if donorSteps == nil {
		return nil
	}

	sd := &Seed{
		compPin: make([]*theory.Triple, g.NumNodes()),
		commPin: make([]pinnedComm, g.NumNodes()),
		steps:   make([]seedStep, 0, len(donorSteps)),
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
