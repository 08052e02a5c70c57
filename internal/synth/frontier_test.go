package synth

import (
	"context"
	"math"
	"slices"
	"testing"

	"hap/internal/autodiff"
	"hap/internal/cluster"
	"hap/internal/collective"
	"hap/internal/cost"
	"hap/internal/graph"
	"hap/internal/models"
	"hap/internal/segment"
	"hap/internal/theory"
)

// The oracle: the beam's candidate enumeration as it was before states
// carried their frontier — every level, every state's communication
// candidates re-derived from its property set, each scored with its own sum.
// Kept verbatim (names aside) so that inheritance is held against the
// definition it replaced, not against itself: oracleCommCandidates shares no
// code with commCandidates/appendSegment.

type oracleCand struct {
	tr    *theory.Triple // nil for communication candidates
	cc    commCand
	score float64
}

func oracleCommCandidates(sy *Synthesizer, s *state, p theory.Property, run []theory.Property, out []commCand) []commCand {
	g := sy.g
	rank := len(g.Node(p.Ref).Shape)
	oi := sy.outputIdx[p.Ref]
	isOutput := oi >= 0
	var output theory.Output
	outDim := -1
	if isOutput {
		output = sy.outputs[oi]
		if output.Param >= 0 {
			switch pd := s.placed[output.Param]; pd {
			case theory.Unplaced:
				return out
			case theory.Replicated:
				outDim = -1
			default:
				outDim = int(pd)
			}
		}
	}
	try := func(coll collective.Kind, d, d2 int, res theory.Property) {
		for _, q := range run {
			if q == res {
				return
			}
		}
		if isOutput {
			if !output.Acceptable(res, outDim) {
				return
			}
		} else if !sy.th.IsWanted(res) {
			return
		}
		out = append(out, commCand{ref: p.Ref, coll: uint8(coll), dim: int8(d), dim2: int8(d2), resKind: res.Kind, resDim: res.Dim})
	}
	switch p.Kind {
	case theory.Reduce:
		try(collective.AllReduce, 0, 0, theory.Id(p.Ref))
		for d := 0; d < rank; d++ {
			try(collective.ReduceScatter, d, 0, theory.Shard(p.Ref, d))
		}
	case theory.Gather:
		d := int(p.Dim)
		try(collective.PaddedAllGather, d, 0, theory.Id(p.Ref))
		if !sy.opt.DisableGroupedBroadcast {
			try(collective.GroupedBroadcast, d, 0, theory.Id(p.Ref))
		}
		for d2 := 0; d2 < rank; d2++ {
			if d2 != d {
				try(collective.AllToAll, d, d2, theory.Shard(p.Ref, d2))
			}
		}
	}
	return out
}

func oracleCommDelta(sy *Synthesizer, s *state, cc commCand) float64 {
	worst := 0.0
	for _, v := range s.openComp {
		if v > worst {
			worst = v
		}
	}
	return s.closedCost + s.openComm + worst + sy.commTime(cc.ref, collective.Kind(cc.coll))
}

// isComplete is completeness by its definition: every output of s in an
// acceptable form — what state.complete, counted per step, must say.
func isComplete(sy *Synthesizer, s *state) bool {
	for _, o := range sy.outputs {
		if !sy.outputAcceptable(s, o) {
			return false
		}
	}
	return true
}

// checkComplete holds s's maintained completeness to isComplete.
func checkComplete(t testing.TB, sy *Synthesizer, s *state) {
	t.Helper()
	if want := isComplete(sy, s); s.complete != want {
		t.Fatalf("trail record %d: complete is %v (%d outputs unmet), every output re-tested says %v", s.tail, s.complete, s.unmet, want)
	}
}

func oracleCandidates(sy *Synthesizer, s *state, out []oracleCand) []oracleCand {
	if int(s.nextReq) < len(sy.reqNodes) {
		id := sy.reqNodes[s.nextReq]
		trs := sy.th.ByNode[id]
		if sd := sy.opt.Seed; sd != nil && sd.compPin[id] != nil {
			if pin := sd.compPin[id]; !(sy.opt.DisableSFB && theory.IsSFB(sy.g, pin)) && sy.compApplicable(s, pin) {
				trs = sd.compPin[id : id+1 : id+1]
			}
		}
		for _, tr := range trs {
			if sy.opt.DisableSFB && theory.IsSFB(sy.g, tr) {
				continue
			}
			if sy.compApplicable(s, tr) {
				score := sy.compDelta(s, tr) + (s.remFlops-sy.g.Flops(id))/sy.totalFlopsPerSec
				out = append(out, oracleCand{tr: tr, score: score})
			}
		}
	}
	var ccBuf []commCand
	for lo, hi := 0, 0; lo < len(s.props); lo = hi {
		ref := s.props[lo].Ref
		for hi = lo + 1; hi < len(s.props) && s.props[hi].Ref == ref; hi++ {
		}
		if bitGet(s.communicated, ref) {
			continue
		}
		if oi := sy.outputIdx[ref]; oi >= 0 && sy.outputAcceptable(s, sy.outputs[oi]) {
			continue
		}
		run := s.props[lo:hi]
		for _, p := range run {
			ccBuf = oracleCommCandidates(sy, s, p, run, ccBuf[:0])
			if sd := sy.opt.Seed; sd != nil && sd.commPin[ref].valid {
				pin := sd.commPin[ref]
				for _, cc := range ccBuf {
					if cc.matches(pin) {
						ccBuf[0] = cc
						ccBuf = ccBuf[:1]
						break
					}
				}
			}
			for _, cc := range ccBuf {
				score := oracleCommDelta(sy, s, cc) + s.remFlops/sy.totalFlopsPerSec
				out = append(out, oracleCand{cc: cc, score: score})
			}
		}
	}
	return out
}

// checkFrontier holds s.front, entry for entry, to (a) ref-by-ref segments
// rebuilt from scratch and (b) the oracle's communication candidates, and
// every entry to the state it claims to be legal in: its tensor is
// uncommunicated and holds the collective's source property but not its
// result. want is oracleCandidates(s).
func checkFrontier(t testing.TB, sy *Synthesizer, s *state, want []oracleCand) {
	t.Helper()
	if rebuilt := sy.appendFrontier(s, nil); !slices.Equal(s.front, rebuilt) {
		t.Fatalf("trail record %d: inherited frontier differs from the segments rebuilt from scratch:\n got %+v\nwant %+v", s.tail, s.front, rebuilt)
	}
	comms := want
	for len(comms) > 0 && comms[0].tr != nil {
		comms = comms[1:]
	}
	if len(comms) != len(s.front) {
		t.Fatalf("trail record %d: frontier has %d entries, the oracle enumerates %d", s.tail, len(s.front), len(comms))
	}
	for i, e := range s.front {
		if e.cc != comms[i].cc {
			t.Fatalf("trail record %d: frontier entry %d is %+v, the oracle has %+v", s.tail, i, e.cc, comms[i].cc)
		}
		if want := sy.commTime(e.cc.ref, collective.Kind(e.cc.coll)); math.Float64bits(e.off) != math.Float64bits(want) {
			t.Fatalf("trail record %d: frontier entry %d carries offset %v, commTime says %v", s.tail, i, e.off, want)
		}
		src := theory.Property{Ref: e.cc.ref, Kind: theory.Gather, Dim: e.cc.dim}
		if k := collective.Kind(e.cc.coll); k == collective.AllReduce || k == collective.ReduceScatter {
			src = theory.Pending(e.cc.ref)
		}
		res := theory.Property{Ref: e.cc.ref, Kind: e.cc.resKind, Dim: e.cc.resDim}
		if bitGet(s.communicated, e.cc.ref) || !s.hasProp(src) || s.hasProp(res) {
			t.Fatalf("trail record %d: frontier entry %+v is not legal here (communicated %v, has source %v, has result %v)",
				s.tail, e.cc, bitGet(s.communicated, e.cc.ref), s.hasProp(src), s.hasProp(res))
		}
	}
}

// checkLevels runs sy's beam search with a hook that holds every state's
// frontier (checkFrontier) and every level's refs — score bits, order and
// parent — to the oracle's enumeration.
func checkLevels(t *testing.T, sy *Synthesizer) {
	t.Helper()
	levels, cands := 0, 0
	var want []oracleCand
	var parents []int32
	sy.levelHook = func(level []*state, refs []candRef) {
		levels++
		want, parents = want[:0], parents[:0]
		for pi, s := range level {
			from := len(want)
			want = oracleCandidates(sy, s, want)
			checkFrontier(t, sy, s, want[from:])
			for range want[from:] {
				parents = append(parents, int32(pi))
			}
		}
		if len(refs) != len(want) {
			t.Fatalf("level %d: %d refs, the oracle enumerates %d candidates", levels, len(refs), len(want))
		}
		for i, r := range refs {
			if !sameRef(r, candRef{score: want[i].score, idx: int32(i), parent: parents[i]}) {
				t.Fatalf("level %d: ref %d is %+v, the oracle scores it %v", levels, i, r, want[i].score)
			}
		}
		cands += len(refs)
	}
	if _, _, err := sy.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if levels == 0 || cands == 0 {
		t.Fatalf("hook saw %d levels, %d candidates", levels, cands)
	}
	t.Logf("%d levels, %d candidates", levels, cands)
}

// beamCase is one whole beam search a rebuild test replays level by level.
type beamCase struct {
	name  string
	build func(t *testing.T) *Synthesizer
}

// beamCases are the searches the rebuild tests hold to their from-scratch
// definitions: paper models, per-segment ratios, a seeded near-miss search
// whose pins filter segments and whose fast-forward retires a chain, and the
// two ablations that change what is legal.
func beamCases() []beamCase {
	het := cluster.PaperHeterogeneous(1)
	b0 := func(g *graph.Graph, c *cluster.Cluster) [][]float64 {
		return cost.UniformRatios(g.NumSegments(), c.ProportionalRatios())
	}
	cases := []beamCase{{"vgg19", func(*testing.T) *Synthesizer {
		g, th, c, ratios := benchInput(models.ModelVGG19)
		return New(g, th, c, ratios, Options{BeamWidth: 48})
	}}, {"moe4", func(*testing.T) *Synthesizer {
		g := goldenInputs()["moe4"](het)
		return New(g, theory.New(g), het, b0(g, het), Options{BeamWidth: 48})
	}}, {"mlp/seg4", func(t *testing.T) *Synthesizer {
		g := seedTestGraph(t, 64, 96, 128, 96, 64, 32)
		segment.Assign(g, 4)
		if g.NumSegments() < 2 {
			t.Fatalf("graph has %d segments, want several", g.NumSegments())
		}
		// Distinct ratios per segment, so a stage's times depend on where
		// its nodes sit.
		ratios := b0(g, het)
		for seg := range ratios {
			ratios[seg][0] += 0.01 * float64(seg)
			ratios[seg][1] -= 0.01 * float64(seg)
		}
		return New(g, theory.New(g), het, ratios, Options{BeamWidth: 24})
	}}, {"seeded", func(t *testing.T) *Synthesizer {
		batch := models.PerDeviceBatch(models.ModelVGG19) * het.TotalGPUs()
		base := models.Training(models.VGG19(batch, 224, 10))
		wide := models.Training(models.VGG19OneWider(batch, 224, 10))
		syBase, thBase := synthFor(base, het, Options{BeamWidth: 48})
		donor, _, err := syBase.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		thWide := theory.New(wide)
		seed := BuildSeed(base, donor, thBase, wide, thWide, 0)
		if seed == nil {
			t.Fatal("BuildSeed returned nil for a one-layer widening")
		}
		pins := 0
		for _, pin := range seed.commPin {
			if pin.valid {
				pins++
			}
		}
		if pins == 0 {
			t.Fatal("the seed pins no communication: the pin filter is not exercised")
		}
		return New(wide, thWide, het, b0(wide, het), Options{BeamWidth: -1, Seed: seed})
	}}}
	for _, name := range []string{"no-sfb", "no-grouped-broadcast"} {
		opt := Options{BeamWidth: 16, DisableSFB: name == "no-sfb", DisableGroupedBroadcast: name == "no-grouped-broadcast"}
		cases = append(cases, beamCase{name, func(t *testing.T) *Synthesizer {
			g := seedTestGraph(t, 64, 128, 96, 32)
			return New(g, theory.New(g), het, b0(g, het), opt)
		}})
	}
	return cases
}

// TestFrontierMatchesRebuild holds the inherited frontier to the enumeration
// it replaced on every beamCases search.
func TestFrontierMatchesRebuild(t *testing.T) {
	for _, bc := range beamCases() {
		t.Run(bc.name, func(t *testing.T) { checkLevels(t, bc.build(t)) })
	}
}

// fuzzWalkGraphs are the small training graphs FuzzFrontierWalk walks. In
// the second the parameter's gradient does not depend on the forward MatMul,
// so a walk can compute it while the parameter is still unplaced.
func fuzzWalkGraphs() []*graph.Graph {
	fig11 := fig11Graph()
	if err := autodiff.Backward(fig11); err != nil {
		panic(err)
	}
	return []*graph.Graph{mlpTraining(), fig11}
}

// FuzzFrontierWalk drives a walk from the root of a small training graph:
// byte 0 picks the graph and the ablations, byte k picks candidate b % n of
// the current state — any applicable triple of any ready node, in any order,
// or any frontier entry. After every step the successor's inherited
// frontier must equal the from-scratch enumeration (checkFrontier) and score
// to the same bits, which holds inheritance on paths the beam's strict
// schedule never takes: gradients computed before their parameter is
// placed, inputs that die out of order, triples that place several leaves.
// Its maintained key must equal the one rebuilt from its content, its
// completeness count must agree with re-testing every output, and two of its
// collectives applied in either order must reach one key. Before every step,
// every candidate's childKey must equal key() of the child it builds, and
// every child's completeness its re-tested outputs (checkChildKeys).
func FuzzFrontierWalk(f *testing.F) {
	graphs := fuzzWalkGraphs()
	theories := make([]*theory.Theory, len(graphs))
	for i, g := range graphs {
		theories[i] = theory.New(g)
	}
	c := twoDevices()
	for _, first := range []byte{0, 1, 2, 5} {
		for _, step := range []func(i int) byte{
			func(int) byte { return 0 },         // always the first candidate
			func(int) byte { return 255 },       // 255 % n: deep into the list
			func(i int) byte { return byte(i) }, // sweeps computation and communication
			func(i int) byte { return byte(7*i*i + 3) },
		} {
			walk := []byte{first}
			for i := 0; i < 48; i++ {
				walk = append(walk, step(i))
			}
			f.Add(walk)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		gi := int(data[0]) % len(graphs)
		g, th := graphs[gi], theories[gi]
		opt := Options{BeamWidth: 4, DisableGroupedBroadcast: data[0]&2 != 0, DisableSFB: data[0]&4 != 0}
		sy := New(g, th, c, ratios(c), opt)
		sy.borrow() // the walk steps outside Run, on a scratch of its own
		s := sy.rootState()
		// The walk leaves the beam's schedule, so nextReq is parked past the
		// end: scoreCandidates and the oracle then emit communication only.
		s.nextReq = int32(len(sy.reqNodes))
		var comps []*theory.Triple
		var lc levelCands
		var want []oracleCand
		var cov keyCover
		for _, b := range data[1:] {
			comps = comps[:0]
			for _, id := range sy.reqNodes {
				if bitGet(s.computed, id) || !sy.ready(s, id) {
					continue
				}
				for _, tr := range th.ByNode[id] {
					if !(opt.DisableSFB && theory.IsSFB(sy.g, tr)) && sy.compApplicable(s, tr) {
						comps = append(comps, tr)
					}
				}
			}
			n := len(comps) + len(s.front)
			if n == 0 {
				break
			}
			checkChildKeys(t, sy, s, comps, &cov)
			var ns *state
			if k := int(b) % n; k < len(comps) {
				ns = sy.applyComp(s, comps[k])
			} else {
				ns = sy.applyComm(s, s.front[k-len(comps)].cc)
			}
			if ns == nil {
				t.Fatalf("trail record %d: an applicable candidate did not apply", s.tail)
			}
			sy.retire(s) // as the beam retires a level: the state recycles whole along the walk
			s = ns
			s.nextReq = int32(len(sy.reqNodes))

			checkKey(t, s)
			checkComplete(t, sy, s)
			checkCommOrders(t, sy, s, b)
			want = oracleCandidates(sy, s, want[:0])
			checkFrontier(t, sy, s, want)
			lc.reset()
			sy.scoreCandidates(s, &lc)
			if len(lc.refs) != len(want) {
				t.Fatalf("trail record %d: %d refs, the oracle enumerates %d", s.tail, len(lc.refs), len(want))
			}
			for i, r := range lc.refs {
				if !sameRef(r, candRef{score: want[i].score, idx: int32(i)}) {
					t.Fatalf("trail record %d: ref %d is %+v, the oracle scores it %v", s.tail, i, r, want[i].score)
				}
			}
		}
	})
}
