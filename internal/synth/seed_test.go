package synth

import (
	"context"
	"testing"

	"hap/internal/cluster"
	"hap/internal/collective"
	"hap/internal/cost"
	"hap/internal/dist"
	"hap/internal/graph"
	"hap/internal/models"
	"hap/internal/theory"
)

// seedTestGraph builds a training MLP with the given hidden widths.
func seedTestGraph(t *testing.T, widths ...int) *graph.Graph {
	t.Helper()
	return models.Training(models.MLP(64, widths...))
}

func synthFor(g *graph.Graph, c *cluster.Cluster, opt Options) (*Synthesizer, *theory.Theory) {
	th := theory.New(g)
	b := cost.UniformRatios(g.NumSegments(), c.ProportionalRatios())
	return New(g, th, c, b, opt), th
}

// TestSeedFullReplay seeds a search from its own plan: the diff is zero, the
// whole donor program fast-forwards, and the result must be byte-identical.
func TestSeedFullReplay(t *testing.T) {
	g := seedTestGraph(t, 64, 128, 96, 32)
	c := cluster.PaperHeterogeneous(1)
	opt := Options{BeamWidth: 24}

	sy, th := synthFor(g, c, opt)
	cold, coldStats, err := sy.Run(context.Background())
	if err != nil {
		t.Fatalf("cold synthesis: %v", err)
	}

	seed := BuildSeed(g, cold, th, g, th, 0)
	if seed == nil {
		t.Fatalf("BuildSeed returned nil for an identical graph")
	}
	if seed.Distance != 0 {
		t.Fatalf("seed distance = %v, want 0", seed.Distance)
	}

	opt.Seed = seed
	b := cost.UniformRatios(g.NumSegments(), c.ProportionalRatios())
	seeded, stats, err := New(g, th, c, b, opt).Run(context.Background())
	if err != nil {
		t.Fatalf("seeded synthesis: %v", err)
	}
	if seeded.String() != cold.String() {
		t.Fatalf("full replay is not byte-identical:\ncold:\n%s\nseeded:\n%s", cold, seeded)
	}
	if stats.Cost != coldStats.Cost {
		t.Fatalf("full replay cost %v != cold cost %v", stats.Cost, coldStats.Cost)
	}
	if stats.Expansions != 0 {
		t.Fatalf("full replay ran %d expansions, want 0 (no search)", stats.Expansions)
	}
}

// TestSeedWidenedModel seeds a widened model's search from the base model's
// plan: the seeded search must stay valid and cost no worse than cold.
func TestSeedWidenedModel(t *testing.T) {
	base := seedTestGraph(t, 64, 96, 96, 96, 96, 96, 96, 32)
	wide := seedTestGraph(t, 64, 96, 96, 112, 96, 96, 96, 32)
	c := cluster.PaperHeterogeneous(1)
	opt := Options{BeamWidth: 24}

	syBase, thBase := synthFor(base, c, opt)
	donor, _, err := syBase.Run(context.Background())
	if err != nil {
		t.Fatalf("donor synthesis: %v", err)
	}
	syCold, thWide := synthFor(wide, c, opt)
	_, coldStats, err := syCold.Run(context.Background())
	if err != nil {
		t.Fatalf("cold synthesis: %v", err)
	}

	seed := BuildSeed(base, donor, thBase, wide, thWide, 0)
	if seed == nil {
		t.Fatalf("BuildSeed returned nil for a one-layer widening")
	}
	if seed.Distance <= 0 || seed.Distance > DefaultMaxSeedDistance {
		t.Fatalf("seed distance = %v, want in (0, %v]", seed.Distance, DefaultMaxSeedDistance)
	}

	opt.Seed = seed
	b := cost.UniformRatios(wide.NumSegments(), c.ProportionalRatios())
	seeded, stats, err := New(wide, thWide, c, b, opt).Run(context.Background())
	if err != nil {
		t.Fatalf("seeded synthesis: %v", err)
	}
	if err := seeded.Validate(); err != nil {
		t.Fatalf("seeded program ill-formed: %v", err)
	}
	if stats.Cost > coldStats.Cost*(1+1e-9) {
		t.Fatalf("seeded cost %v worse than cold %v", stats.Cost, coldStats.Cost)
	}
	if stats.Expansions >= coldStats.Expansions {
		t.Fatalf("seeded search did not shrink: %d expansions vs cold %d", stats.Expansions, coldStats.Expansions)
	}
}

// TestSeedDistanceThreshold: a structurally unrelated donor is rejected.
func TestSeedDistanceThreshold(t *testing.T) {
	base := seedTestGraph(t, 64, 128, 96, 32)
	other := seedTestGraph(t, 48, 80, 56, 24, 16)
	c := cluster.PaperHeterogeneous(1)
	syBase, thBase := synthFor(base, c, Options{BeamWidth: 24})
	donor, _, err := syBase.Run(context.Background())
	if err != nil {
		t.Fatalf("donor synthesis: %v", err)
	}
	thOther := theory.New(other)
	if sd := BuildSeed(base, donor, thBase, other, thOther, 0); sd != nil {
		t.Fatalf("BuildSeed accepted an unrelated donor (distance %v)", sd.Distance)
	}
}

// mapReplayState is the donor replay's mirror with each tensor's properties
// in a set, the form replayState had before its mask words. FuzzBuildSeed
// holds the replay to it.
type mapReplayState struct {
	props        map[theory.Property]bool
	placed       []int8
	computed     []bool
	communicated []bool
}

func newMapReplayState(n int) *mapReplayState {
	rs := &mapReplayState{
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

func (rs *mapReplayState) clone() *mapReplayState {
	c := &mapReplayState{
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

// mapReplay is replay over a mapReplayState: the same walk, budget and
// branching, with set lookups where replay tests mask bits.
func (r *replayer) mapReplay(rs *mapReplayState, instrs []dist.Instruction, steps []donorStep) []donorStep {
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
			if !ok || rs.communicated[in.Ref] || !rs.props[src] || rs.props[res] {
				return nil
			}
			rs.communicated[in.Ref] = true
			rs.props[res] = true
			steps = append(steps, donorStep{comm: true, node: in.Ref, coll: in.Coll, dim: in.Dim, dim2: in.Dim2})
			instrs = instrs[1:]

		case in.Op.IsLeaf():
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
				if !r.mapApplicable(rs, tr) {
					continue
				}
				matches = append(matches, tr)
			}
			if len(matches) == 0 {
				return nil
			}
			if len(matches) > 1 {
				for _, tr := range matches {
					branch := rs.clone()
					r.mapApplyComp(branch, id, tr)
					if out := r.mapReplay(branch, instrs[1:], append(steps, donorStep{node: id, tr: tr})); out != nil {
						return out
					}
					if r.budget < 0 {
						return nil
					}
				}
				return nil
			}
			r.mapApplyComp(rs, id, matches[0])
			steps = append(steps, donorStep{node: id, tr: matches[0]})
			instrs = instrs[1:]
		}
	}
	return steps
}

func (r *replayer) mapApplicable(rs *mapReplayState, tr *theory.Triple) bool {
	for _, p := range tr.Pre() {
		if !rs.props[p] {
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

func (r *replayer) mapApplyComp(rs *mapReplayState, id graph.NodeID, tr *theory.Triple) {
	rs.computed[id] = true
	rs.props[tr.Out] = true
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
	for _, u := range r.g.Node(id).Inputs {
		if !r.g.Node(u).Kind.IsLeaf() {
			check(u)
		}
	}
	check(id)
}

// seedDonor is one real plan FuzzBuildSeed mutates, with the graph it was
// planned for and a one-layer-wider target to seed.
type seedDonor struct {
	g, wide    *graph.Graph
	th, wideTh *theory.Theory
	prog       *dist.Program
	c          *cluster.Cluster
	wideRatios [][]float64
}

func fuzzSeedDonors(tb testing.TB) []seedDonor {
	vgg := newSeededInput(tb)
	c := cluster.PaperHeterogeneous(1)
	mlp := models.Training(models.MLP(64, 96, 96, 96, 96, 96, 96, 32))
	mlpWide := models.Training(models.MLP(64, 96, 96, 112, 96, 96, 96, 32))
	sy, mlpTh := synthFor(mlp, c, Options{BeamWidth: 24})
	mlpProg, _, err := sy.Run(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return []seedDonor{
		{g: mlp, wide: mlpWide, th: mlpTh, wideTh: theory.New(mlpWide), prog: mlpProg, c: c,
			wideRatios: cost.UniformRatios(mlpWide.NumSegments(), c.ProportionalRatios())},
		{g: vgg.donorG, wide: vgg.g, th: theory.New(vgg.donorG), wideTh: vgg.th, prog: vgg.donor, c: vgg.c,
			wideRatios: vgg.ratios},
	}
}

// mutateInstrs applies the mutations muts encodes, three bytes each (what,
// where, value), to a copy of instrs: drop, duplicate or swap instructions,
// or rewrite one's ref, shard dim, flop scaling, collective, dims or kind.
func mutateInstrs(instrs []dist.Instruction, muts []byte) []dist.Instruction {
	out := append([]dist.Instruction(nil), instrs...)
	for ; len(muts) >= 3 && len(out) > 0; muts = muts[3:] {
		i, v := int(muts[1])*len(out)/256, muts[2]
		in := &out[i]
		switch muts[0] % 8 {
		case 0:
			out = append(out[:i], out[i+1:]...)
		case 1:
			out = append(out[:i+1], out[i:]...)
		case 2:
			if i+1 < len(out) {
				out[i], out[i+1] = out[i+1], out[i]
			}
		case 3:
			in.Ref += graph.NodeID(int8(v))
		case 4:
			in.ShardDim = int(int8(v))
		case 5:
			in.FlopsScaled = !in.FlopsScaled
		case 6:
			if v&0x80 != 0 {
				in.Coll = collective.Kind(v % 6)
			} else {
				in.Dim = int(v&0x7f) - 2
			}
		default:
			if v&0x80 != 0 {
				in.IsComm = !in.IsComm
			} else {
				in.Dim2 = int(v&0x7f) - 2
			}
		}
	}
	return out
}

// FuzzBuildSeed mutates the instructions of a real MLP or VGG19 plan and
// replays the result as a donor. BuildSeed must never panic; the replay
// must stay inside replayBudget and agree with the set-based mirror step for
// step, budget spent included (or both find no reading); and any seed it
// returns, for the donor's own graph or a one-layer-wider one, must drive a
// search to a program that passes Validate, or to the beam's report that it
// found none (see below).
func FuzzBuildSeed(f *testing.F) {
	donors := fuzzSeedDonors(f)
	for which := range donors {
		f.Add(uint8(which), false, []byte{})
		f.Add(uint8(which), true, []byte{})
		f.Add(uint8(which), false, []byte{0, 128, 0})        // drop an instruction
		f.Add(uint8(which), true, []byte{2, 100, 0})         // swap two
		f.Add(uint8(which), false, []byte{6, 200, 1})        // a collective's dim
		f.Add(uint8(which), false, []byte{3, 50, 0x7f})      // a ref off the graph
		f.Add(uint8(which), true, []byte{5, 30, 0, 1, 9, 0}) // flop scaling, a duplicate
	}
	f.Fuzz(func(t *testing.T, which uint8, wide bool, muts []byte) {
		d := donors[int(which)%len(donors)]
		instrs := mutateInstrs(d.prog.Instrs, muts)
		r, ref := newReplayer(d.g, d.th), newReplayer(d.g, d.th)
		got := r.replay(newReplayState(d.g.NumNodes()), instrs, nil)
		want := ref.mapReplay(newMapReplayState(d.g.NumNodes()), instrs, nil)
		if spent := replayBudget - r.budget; spent > replayBudget+1 {
			t.Fatalf("replay spent %d of a %d budget", spent, replayBudget)
		}
		if r.budget != ref.budget {
			t.Fatalf("replay left budget %d, the set mirror %d", r.budget, ref.budget)
		}
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("replay recovered %d steps (nil %t), the set mirror %d (nil %t)", len(got), got == nil, len(want), want == nil)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: replay %+v, set mirror %+v", i, got[i], want[i])
			}
		}

		g, th, ratios := d.g, d.th, cost.UniformRatios(d.g.NumSegments(), d.c.ProportionalRatios())
		if wide {
			g, th, ratios = d.wide, d.wideTh, d.wideRatios
		}
		seed := BuildSeed(d.g, &dist.Program{Graph: d.g, Instrs: instrs}, d.th, g, th, 0)
		if seed == nil {
			return
		}
		// A mutated donor can pin a prefix (say, a replicated first layer)
		// from which all four states of the narrow seeded beam dead-end; the
		// search then falls back to a cold one, so it always plans.
		p, _, err := New(g, th, d.c, ratios, Options{BeamWidth: -1, Seed: seed}).Run(context.Background())
		if err != nil {
			t.Fatalf("seeded search: %v", err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("seeded program: %v", err)
		}
	})
}
