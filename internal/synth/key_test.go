package synth

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/bits"
	"slices"
	"testing"

	"hap/internal/autodiff"
	"hap/internal/cluster"
	"hap/internal/cost"
	"hap/internal/graph"
	"hap/internal/models"
	"hap/internal/theory"
)

// rebuildKey is the state key computed from scratch: the set hash over s's
// whole content, folded with its last computation — what key() must return
// however the writers got s there.
func rebuildKey(s *state) uint64 {
	h := nodeCode(elemLastComp, s.lastComp)
	for _, p := range s.props {
		h ^= propCode(p)
	}
	for ref, v := range s.placed {
		if v != theory.Unplaced {
			h ^= placedCode(graph.NodeID(ref), v)
		}
	}
	for _, set := range []struct {
		kind  uint64
		words []uint64
	}{{elemComputed, s.computed}, {elemCommunicated, s.communicated}} {
		for w, word := range set.words {
			for ; word != 0; word &= word - 1 {
				h ^= nodeCode(set.kind, graph.NodeID(64*w+bits.TrailingZeros64(word)))
			}
		}
	}
	return h
}

// sameContent reports whether a and b hold the content the key covers.
func sameContent(a, b *state) bool {
	return slices.Equal(a.props, b.props) && slices.Equal(a.computed, b.computed) &&
		slices.Equal(a.communicated, b.communicated) && slices.Equal(a.placed, b.placed) &&
		a.lastComp == b.lastComp
}

func checkKey(t testing.TB, s *state) {
	t.Helper()
	if got, want := s.key(), rebuildKey(s); got != want {
		t.Fatalf("trail record %d: maintained key %016x, rebuilt from the content %016x", s.tail, got, want)
	}
}

// checkCommOrders applies two of s's collectives on distinct tensors in both
// orders, pick choosing the first: the two grandchildren hold the same
// content, so they must reach the same key.
func checkCommOrders(t testing.TB, sy *Synthesizer, s *state, pick byte) {
	t.Helper()
	if len(s.front) == 0 {
		return
	}
	first := s.front[int(pick)%len(s.front)].cc
	i := slices.IndexFunc(s.front, func(e frontEntry) bool { return e.cc.ref != first.ref })
	if i < 0 {
		return
	}
	second := s.front[i].cc
	via := func(a, b commCand) (mid, end *state) {
		mid = sy.applyComm(s, a)
		if !slices.ContainsFunc(mid.front, func(e frontEntry) bool { return e.cc == b }) {
			t.Fatalf("trail record %d: %+v is not legal after %+v", s.tail, b, a)
		}
		return mid, sy.applyComm(mid, b)
	}
	m1, ab := via(first, second)
	m2, ba := via(second, first)
	checkKey(t, ab)
	checkKey(t, ba)
	if ab.key() != ba.key() || !sameContent(ab, ba) {
		t.Fatalf("trail record %d: %+v then %+v reaches key %016x, the other order %016x (same content: %v)",
			s.tail, first, second, ab.key(), ba.key(), sameContent(ab, ba))
	}
	for _, x := range []*state{ab, m1, ba, m2} {
		sy.retire(x)
	}
}

// keyCover counts the steps checkChildKeys held to their child's key, by
// what the step writes to the key.
type keyCover struct {
	comm, leaf, dropped, dupDropped int
}

// checkChildKeys materializes every candidate of s — each triple of comps,
// then each frontier entry — and holds childKey, computed from s before the
// step, to key() of the child the step builds: phase 3 skips a candidate on
// the former without ever computing the latter. Each child's completeness,
// counted from the outputs its step touched, must match isComplete.
func checkChildKeys(t testing.TB, sy *Synthesizer, s *state, comps []*theory.Triple, cov *keyCover) {
	t.Helper()
	check := func(st step, ns *state) {
		t.Helper()
		if got, want := sy.childKey(s, st), ns.key(); got != want {
			t.Fatalf("trail record %d: childKey of %+v is %016x, the child it builds has key %016x", s.tail, st, got, want)
		}
		checkComplete(t, sy, ns)
		sy.retire(ns)
	}
	for _, tr := range comps {
		ns := sy.applyComp(s, tr)
		if ns == nil {
			t.Fatalf("trail record %d: an applicable triple of node %d did not apply", s.tail, tr.Node)
		}
		for _, p := range tr.LeafPre() {
			if s.placed[p.Ref] == theory.Unplaced {
				cov.leaf++
				break
			}
		}
		ins := sy.g.Node(tr.Node).Inputs
		for i, u := range ins {
			if slices.Contains(ins[:i], u) || len(s.propsOf(u)) == 0 || len(ns.propsOf(u)) > 0 {
				continue
			}
			cov.dropped++
			if slices.Contains(ins[i+1:], u) {
				cov.dupDropped++
			}
		}
		check(step{tr: tr}, ns)
	}
	for _, e := range s.front {
		cov.comm++
		check(step{cc: e.cc}, sy.applyComm(s, e.cc))
	}
}

// TestStateKeyMatchesRebuild holds the maintained state key to its
// from-scratch definition, and the completeness count to isComplete, on
// every state of every level of the beamCases searches, and on exact A*'s
// successors of a small graph. Within a level, and among A*'s states, equal
// keys must mean equal content: the key is what dedup compares instead of
// the content. Every candidate of every level state must also reach, once
// built, the key childKey gave it beforehand — on the beamCases and on a
// graph whose one input read twice dies there.
func TestStateKeyMatchesRebuild(t *testing.T) {
	var cov keyCover
	for _, bc := range beamCases() {
		t.Run(bc.name, func(t *testing.T) {
			sy := bc.build(t)
			states := 0
			byKey := map[uint64]*state{}
			var lc levelCands
			sy.levelHook = func(level []*state, _ []candRef) {
				clear(byKey)
				for _, s := range level {
					checkKey(t, s)
					checkComplete(t, sy, s)
					if o, ok := byKey[s.key()]; ok && !sameContent(o, s) {
						t.Fatalf("trail record %d: two states of different content share key %016x", s.tail, s.key())
					}
					byKey[s.key()] = s
					lc.reset()
					sy.scoreCandidates(s, &lc)
					checkChildKeys(t, sy, s, lc.comps, &cov)
				}
				states += len(level)
			}
			if _, _, err := sy.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if states == 0 {
				t.Fatal("the hook saw no states")
			}
			t.Logf("%d states", states)
		})
	}
	// h+h: h's only consumer reads it twice (and its backward does not read
	// h), so computing it drops h's properties once, not twice.
	t.Run("double", func(t *testing.T) {
		g := graph.New()
		x := g.AddPlaceholder("x", 0, 32, 16)
		w := g.AddParameter("w", 16, 16)
		h := g.AddOp(graph.MatMul, x, w)
		g.SetLoss(g.AddOp(graph.Sum, g.AddOp(graph.Add, h, h)))
		if err := autodiff.Backward(g); err != nil {
			t.Fatal(err)
		}
		c := twoDevices()
		sy := New(g, theory.New(g), c, ratios(c), Options{BeamWidth: 8})
		var lc levelCands
		sy.levelHook = func(level []*state, _ []candRef) {
			for _, s := range level {
				lc.reset()
				sy.scoreCandidates(s, &lc)
				checkChildKeys(t, sy, s, lc.comps, &cov)
			}
		}
		if _, _, err := sy.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("childKey held on %d collectives, %d leaf-placing computations, %d dropped inputs (%d read twice)",
		cov.comm, cov.leaf, cov.dropped, cov.dupDropped)
	if cov.comm == 0 || cov.leaf == 0 || cov.dropped == 0 || cov.dupDropped == 0 {
		t.Errorf("childKey coverage is missing a step kind: %+v", cov)
	}
	// Exact A*: breadth-first over expandFrom from the root. Unlike a beam
	// level, A*'s states reach the same content along different paths (two
	// collectives in either order), so the equal-key check has work here.
	t.Run("astar", func(t *testing.T) {
		g := mlpTraining()
		c := twoDevices()
		sy := New(g, theory.New(g), c, ratios(c), Options{})
		sy.borrow() // the walk expands outside Run, on a scratch of its own
		root := sy.rootState()
		checkKey(t, root)
		seen := map[uint64]*state{root.key(): root}
		queue := []*state{root}
		merged := 0
		for len(queue) > 0 && len(seen) < 20_000 {
			s := queue[0]
			queue = queue[1:]
			for _, ns := range sy.expandFrom(s, nil) {
				checkKey(t, ns)
				checkComplete(t, sy, ns)
				if o, ok := seen[ns.key()]; ok {
					if !sameContent(o, ns) {
						t.Fatalf("trail record %d: two states of different content share key %016x", ns.tail, ns.key())
					}
					merged++
					continue
				}
				seen[ns.key()] = ns
				queue = append(queue, ns)
			}
		}
		if merged == 0 {
			t.Fatal("no two paths reached the same content: the equal-key check was not exercised")
		}
		t.Logf("%d distinct states, %d reached again", len(seen), merged)
	})
}

// TestTrailRebuildsPrograms holds program(), which rebuilds a state's
// instructions from the trail alone, to the plans the search emitted when
// ancestors kept theirs: the beam winner's golden hash, and a fast-forward
// through a whole donor program reproducing the donor. Since no ancestor
// outlives its level, the beam's levels also occupy a number of state
// structs bounded by the beam width, not by the search depth.
func TestTrailRebuildsPrograms(t *testing.T) {
	t.Run("beam", func(t *testing.T) {
		const width = 48
		g, th, c, ratios := benchInput(models.ModelVGG19)
		sy := New(g, th, c, ratios, Options{BeamWidth: width})
		structs := map[*state]bool{}
		levels := 0
		sy.levelHook = func(level []*state, _ []candRef) {
			levels++
			for _, s := range level {
				structs[s] = true
			}
		}
		p, _, err := sy.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write([]byte(p.String()))
		if got, want := fmt.Sprintf("%016x", h.Sum64()), goldenPlans["vgg19/het8"].hash; got != want {
			t.Fatalf("the winner rebuilt from the trail hashes to %s, the golden plan to %s", got, want)
		}
		t.Logf("%d levels occupied %d state structs", levels, len(structs))
		// A level and its successors, plus the candidate in hand and a
		// retained complete state.
		if limit := 2*width + 2; len(structs) > limit {
			t.Errorf("%d levels occupied %d state structs, want at most %d (two levels' worth)", levels, len(structs), limit)
		}
	})
	// A zero-diff seed fast-forwards through the whole donor program,
	// retiring each intermediate as it advances.
	t.Run("fast-forward", func(t *testing.T) {
		g := seedTestGraph(t, 64, 128, 96, 32)
		c := cluster.PaperHeterogeneous(1)
		opt := Options{BeamWidth: 24}
		sy, th := synthFor(g, c, opt)
		donor, _, err := sy.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		opt.Seed = BuildSeed(g, donor, th, g, th, 0)
		if opt.Seed == nil {
			t.Fatal("BuildSeed returned nil for an identical graph")
		}
		sy = New(g, th, c, cost.UniformRatios(g.NumSegments(), c.ProportionalRatios()), opt)
		sy.borrow() // the fast-forward runs outside Run, on a scratch of its own
		end, applied, done := sy.fastForward(sy.rootState())
		if !done {
			t.Fatalf("the fast-forward stopped after %d of %d steps", applied, opt.Seed.Steps())
		}
		checkKey(t, end)
		if got := sy.program(end.tail); got.String() != donor.String() {
			t.Fatalf("the fast-forwarded program differs from the donor:\n%s\nvs\n%s", got, donor)
		}
	})
}
