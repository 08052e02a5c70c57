package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// mlp builds a small MLP-shaped forward graph: x · w1 · w2 · … with ReLUs,
// summed into a loss.
func mlp(widths ...int) *Graph {
	g := New()
	h := g.AddPlaceholder("x", 0, 8, widths[0])
	for i := 1; i < len(widths); i++ {
		w := g.AddParameter("w", widths[i-1], widths[i])
		h = g.AddOp(ReLU, g.AddOp(MatMul, h, w))
	}
	g.SetLoss(g.AddOp(Sum, h))
	return g
}

func TestDiffIdenticalGraphs(t *testing.T) {
	a := mlp(16, 32, 32, 8)
	b := mlp(16, 32, 32, 8)
	d := StructuralDiff(a, b)
	if d.Norm != 0 || d.EditA != 0 || d.EditB != 0 {
		t.Fatalf("identical graphs: Norm=%v EditA=%d EditB=%d, want all zero", d.Norm, d.EditA, d.EditB)
	}
	for i := 0; i < a.NumNodes(); i++ {
		if m, ok := d.MapAB(NodeID(i)); !ok || m != NodeID(i) {
			t.Fatalf("identical graphs: MapAB(%d) = %d,%v, want identity", i, m, ok)
		}
	}
	if len(d.Matches) != 1 || d.Matches[0] != (Match{Len: a.NumNodes()}) {
		t.Fatalf("identical graphs: Matches = %v, want one run covering the graph", d.Matches)
	}
}

func TestDiffEmptyGraph(t *testing.T) {
	empty := New()
	full := mlp(16, 32, 8)
	if d := StructuralDiff(empty, empty); d.Norm != 0 {
		t.Fatalf("empty vs empty: Norm=%v, want 0", d.Norm)
	}
	d := StructuralDiff(empty, full)
	if d.Norm != 1 {
		t.Fatalf("empty vs full: Norm=%v, want 1", d.Norm)
	}
	if len(d.Matches) != 0 || d.EditB != full.NumNodes() {
		t.Fatalf("empty vs full: Matches=%v EditB=%d, want none/%d", d.Matches, d.EditB, full.NumNodes())
	}
	// And the transpose: the edit size is symmetric.
	if d := StructuralDiff(full, empty); d.Norm != 1 || d.EditA != full.NumNodes() {
		t.Fatalf("full vs empty: Norm=%v EditA=%d", d.Norm, d.EditA)
	}
}

func TestDiffDisjointGraphs(t *testing.T) {
	a := mlp(16, 32, 32, 8)
	// Entirely different op kinds: no node signature survives. (Different
	// *widths* are not enough — a scalar Sum loss hashes identically in any
	// MLP, and the refinement pass would rightly align it.)
	b := New()
	h := b.AddOnes(3, 3)
	for i := 0; i < a.NumNodes(); i++ {
		h = b.AddOp(Mul, h, h)
	}
	d := StructuralDiff(a, b)
	if d.Norm != 1 {
		t.Fatalf("disjoint graphs: Norm=%v, want 1", d.Norm)
	}
	if len(d.Matches) != 0 {
		t.Fatalf("disjoint graphs: Matches=%v, want none", d.Matches)
	}
	if d.EditB != b.NumNodes() {
		t.Fatalf("disjoint graphs: EditB=%d, want %d", d.EditB, b.NumNodes())
	}
	for i := 0; i < a.NumNodes(); i++ {
		if _, ok := d.MapAB(NodeID(i)); ok {
			t.Fatalf("disjoint graphs: MapAB(%d) unexpectedly mapped", i)
		}
	}
}

// TestDiffCrossesSegmentBoundary edits a region spanning a segment boundary
// and checks that the alignment (which ignores the segment overlay) still
// recovers the unchanged prefix and suffix, and that the changed nodes come
// from both segments.
func TestDiffCrossesSegmentBoundary(t *testing.T) {
	segment := func(g *Graph) {
		// Two segments split at the graph midpoint.
		g.SegmentOf = make([]int, g.NumNodes())
		for i := g.NumNodes() / 2; i < g.NumNodes(); i++ {
			g.SegmentOf[i] = 1
		}
	}
	a := mlp(16, 32, 32, 32, 32, 8)
	b := mlp(16, 32, 32, 48, 32, 8) // widen the layer straddling the midpoint
	segment(a)
	segment(b)
	d := StructuralDiff(a, b)
	if d.Norm <= 0 || d.Norm >= 1 {
		t.Fatalf("boundary-crossing edit: Norm=%v, want strictly between 0 and 1", d.Norm)
	}
	if d.EditB == 0 {
		t.Fatalf("boundary-crossing edit: EditB=0, want changed nodes in b")
	}
	seg := map[int]bool{}
	for i := 0; i < a.NumNodes(); i++ {
		if _, ok := d.MapAB(NodeID(i)); !ok {
			seg[a.SegmentOf[i]] = true
		}
	}
	if !seg[0] || !seg[1] {
		t.Fatalf("changed nodes (matches %v) touch segments %v, want both 0 and 1", d.Matches, seg)
	}
	// The prefix before the edit and the suffix after it still map.
	if m, ok := d.MapAB(0); !ok || m != 0 {
		t.Fatalf("MapAB(0) = %d,%v, want identity", m, ok)
	}
	last := NodeID(a.NumNodes() - 1)
	if m, ok := d.MapAB(last); !ok || m != NodeID(b.NumNodes()-1) {
		t.Fatalf("MapAB(%d) = %d,%v, want b's last node", last, m, ok)
	}
}

// sortedSubs is SubFingerprints sorted, as SharedSubFingerprints takes it.
func sortedSubs(g *Graph) []uint64 {
	subs := SubFingerprints(g)
	slices.Sort(subs)
	return subs
}

// TestDiffSharedSubFingerprints checks the similarity primitive: a one-layer
// edit leaves most chunk hashes shared; a disjoint graph shares none.
func TestDiffSharedSubFingerprints(t *testing.T) {
	a := mlp(16, 32, 32, 32, 32, 32, 32, 8)
	b := mlp(16, 32, 32, 48, 32, 32, 32, 8)
	fa, fb := sortedSubs(a), sortedSubs(b)
	shared := SharedSubFingerprints(fa, fb)
	if shared == 0 {
		t.Fatalf("one-layer edit shares no sub-fingerprints (|a|=%d |b|=%d)", len(fa), len(fb))
	}
	if shared == len(fa) && len(fa) == len(fb) {
		t.Fatalf("one-layer edit shares every sub-fingerprint — chunks not content-sensitive")
	}
	c := mlp(17, 33, 35, 9)
	if got := SharedSubFingerprints(sortedSubs(c), fa); got != 0 {
		t.Fatalf("disjoint graphs share %d sub-fingerprints, want 0", got)
	}
}

// sharedByMap is the multiset intersection SharedSubFingerprints counted
// before it took sorted lists: a map of b's counts, drawn down by a.
func sharedByMap(a, b []uint64) int {
	counts := make(map[uint64]int, len(b))
	for _, h := range b {
		counts[h]++
	}
	shared := 0
	for _, h := range a {
		if counts[h] > 0 {
			counts[h]--
			shared++
		}
	}
	return shared
}

// TestSharedSubFingerprintsMatchesMap holds the merge walk to the map count
// on random multisets: lengths 0 to 40 over alphabets of 1 to 30 values, so
// that repeats, disjoint lists and empty lists all occur, both ways round.
func TestSharedSubFingerprintsMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draw := func(n, alphabet int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(rng.Intn(alphabet)) * 0x9e3779b97f4a7c15
		}
		slices.Sort(out)
		return out
	}
	for i := 0; i < 5000; i++ {
		alphabet := 1 + rng.Intn(30)
		a, b := draw(rng.Intn(41), alphabet), draw(rng.Intn(41), alphabet)
		if got, want := SharedSubFingerprints(a, b), sharedByMap(a, b); got != want {
			t.Fatalf("SharedSubFingerprints(%v, %v) = %d, the map count %d", a, b, got, want)
		}
		if got, want := SharedSubFingerprints(b, a), sharedByMap(b, a); got != want {
			t.Fatalf("SharedSubFingerprints(%v, %v) = %d, the map count %d", b, a, got, want)
		}
	}
}

// TestSharedSubFingerprintsAllocationPin holds the donor lookup's per-entry
// comparison at no allocation: it runs once per cached entry on every miss,
// and while it built a map of b's counts each time it allocated about 5 KiB
// of each serve_churn call's 410.
func TestSharedSubFingerprintsAllocationPin(t *testing.T) {
	a := sortedSubs(mlp(16, 32, 32, 32, 32, 32, 32, 8))
	b := sortedSubs(mlp(16, 32, 32, 48, 32, 32, 32, 8))
	if n := testing.AllocsPerRun(10, func() { SharedSubFingerprints(a, b) }); n != 0 {
		t.Fatalf("SharedSubFingerprints made %v allocations, want 0", n)
	}
}
