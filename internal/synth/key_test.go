package synth

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/bits"
	"slices"
	"testing"

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
		if v != unplaced {
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
		t.Fatalf("depth %d: maintained key %016x, rebuilt from the content %016x", s.depth, got, want)
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
			t.Fatalf("depth %d: %+v is not legal after %+v", s.depth, b, a)
		}
		return mid, sy.applyComm(mid, b)
	}
	m1, ab := via(first, second)
	m2, ba := via(second, first)
	checkKey(t, ab)
	checkKey(t, ba)
	if ab.key() != ba.key() || !sameContent(ab, ba) {
		t.Fatalf("depth %d: %+v then %+v reaches key %016x, the other order %016x (same content: %v)",
			s.depth, first, second, ab.key(), ba.key(), sameContent(ab, ba))
	}
	for _, x := range []*state{ab, m1, ba, m2} { // children before the parents they borrow from
		sy.release(x)
	}
}

// TestStateKeyMatchesRebuild holds the maintained state key to its
// from-scratch definition on every state of every level of the beamCases
// searches, and on exact A*'s successors of a small graph. Within a level,
// and among A*'s states, equal keys must mean equal content: the key is what
// dedup compares instead of the content.
func TestStateKeyMatchesRebuild(t *testing.T) {
	for _, bc := range beamCases() {
		t.Run(bc.name, func(t *testing.T) {
			sy := bc.build(t)
			states := 0
			byKey := map[uint64]*state{}
			sy.levelHook = func(level []*state, _ []candRef) {
				clear(byKey)
				for _, s := range level {
					checkKey(t, s)
					if o, ok := byKey[s.key()]; ok && !sameContent(o, s) {
						t.Fatalf("depth %d: two states of different content share key %016x", s.depth, s.key())
					}
					byKey[s.key()] = s
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
	// Exact A*: breadth-first over expandFrom from the root. Unlike a beam
	// level, A*'s states reach the same content along different paths (two
	// collectives in either order), so the equal-key check has work here.
	t.Run("astar", func(t *testing.T) {
		g := mlpTraining()
		c := twoDevices()
		sy := New(g, theory.New(g), c, ratios(c), Options{})
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
				if o, ok := seen[ns.key()]; ok {
					if !sameContent(o, ns) {
						t.Fatalf("depth %d: two states of different content share key %016x", ns.depth, ns.key())
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

// TestRetiredAncestorsKeepOnlyInstructions holds what an ancestor keeps once
// its level retires — its parent, its instructions and the bitsets its
// children borrow, not its props, placements or stage times — and that
// program() still rebuilds the winner from those shells.
func TestRetiredAncestorsKeepOnlyInstructions(t *testing.T) {
	shells := func(t *testing.T, s *state) {
		t.Helper()
		for a := s.parent; a != nil; a = a.parent {
			if a.props != nil || a.placed != nil || a.openComp != nil {
				t.Fatalf("the depth-%d ancestor of a depth-%d state still holds its backing", a.depth, s.depth)
			}
			if a.computed == nil || a.communicated == nil {
				t.Fatalf("the depth-%d ancestor of a depth-%d state lost the bitsets its children borrow", a.depth, s.depth)
			}
		}
	}
	t.Run("beam", func(t *testing.T) {
		g, th, c, ratios := benchInput(models.ModelVGG19)
		sy := New(g, th, c, ratios, Options{BeamWidth: 48, Workers: 1})
		sy.levelHook = func(level []*state, _ []candRef) {
			for _, s := range level {
				shells(t, s)
			}
		}
		p, _, err := sy.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write([]byte(p.String()))
		if got, want := fmt.Sprintf("%016x", h.Sum64()), goldenPlans["vgg19/het8"].hash; got != want {
			t.Fatalf("the winner rebuilt from retired ancestors hashes to %s, the golden plan to %s", got, want)
		}
	})
	// A zero-diff seed fast-forwards through the whole donor program,
	// retiring each intermediate as it advances.
	t.Run("fast-forward", func(t *testing.T) {
		g := seedTestGraph(t, 64, 128, 96, 32)
		c := cluster.PaperHeterogeneous(1)
		opt := Options{BeamWidth: 24, Workers: 1}
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
		end, applied, done := sy.fastForward(sy.rootState())
		if !done {
			t.Fatalf("the fast-forward stopped after %d of %d steps", applied, opt.Seed.Steps())
		}
		shells(t, end)
		checkKey(t, end)
		if got := end.program(g); got.String() != donor.String() {
			t.Fatalf("the fast-forwarded program differs from the donor:\n%s\nvs\n%s", got, donor)
		}
	})
}
