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

// TestBuildSeedRefusesInvalidDonorGraph: a donor graph that fails
// graph.Validate (here a rank-129 input, which a Property cannot name)
// seeds nothing, and no theory is built from it.
func TestBuildSeedRefusesInvalidDonorGraph(t *testing.T) {
	g := seedTestGraph(t, 64, 128, 96, 32)
	sy, th := synthFor(g, cluster.PaperHeterogeneous(1), Options{BeamWidth: 24})
	cold, _, err := sy.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	donor := *g
	donor.Nodes = append([]graph.Node(nil), g.Nodes...)
	donor.Nodes[0].Shape = make([]int, graph.MaxRank+1)
	for i := range donor.Nodes[0].Shape {
		donor.Nodes[0].Shape[i] = 1
	}
	if seed := BuildSeed(&donor, cold, nil, g, th, 0); seed != nil {
		t.Errorf("BuildSeed seeded from a donor graph Validate refuses")
	}
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
// seeds from the result as a donor. BuildSeed must never panic, and any seed
// it returns, for the donor's own graph or a one-layer-wider one, must drive
// a search to a program that passes Validate, or to the beam's report that
// it found none (see below). theory's FuzzCheck holds the donor's reading.
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

// replicatedProgram lowers every required computation of th by its
// replicated triple, each leaf loaded replicated before its first reader: a
// correct program of any length, with no collective.
func replicatedProgram(th *theory.Theory) *dist.Program {
	g := th.Graph
	p := &dist.Program{Graph: g}
	loaded := make([]bool, g.NumNodes())
	for _, triples := range th.ByNode {
		for _, tr := range triples {
			if tr.Out.Kind != theory.Identity || tr.FlopsScaled {
				continue
			}
			for _, q := range tr.LeafPre() {
				if !loaded[q.Ref] {
					loaded[q.Ref] = true
					p.Instrs = append(p.Instrs, theory.LeafInstr(g, q))
				}
			}
			p.Instrs = append(p.Instrs, tr.Instr(g))
			break
		}
	}
	return p
}

// TestSeedLongProgram seeds from a donor of more than 10 000 instructions,
// the replicated program of a 1 500-layer MLP: it passes theory.Check, and
// BuildSeed pins every decision. While the donor replay spent a budget of
// 10 000 per instruction, no donor that long seeded (BuildSeed returned
// nil); Check's budget bounds the readings it tries instead.
func TestSeedLongProgram(t *testing.T) {
	widths := make([]int, 1500)
	for i := range widths {
		widths[i] = 8
	}
	g := models.Training(models.MLP(64, widths...))
	th := theory.New(g)
	donor := replicatedProgram(th)
	if len(donor.Instrs) <= 10_000 {
		t.Fatalf("the donor has %d instructions, want more than 10 000", len(donor.Instrs))
	}
	if _, err := theory.Check(th, donor, nil); err != nil {
		t.Fatalf("the donor fails its check: %v", err)
	}
	seed := BuildSeed(g, donor, th, g, th, 0)
	if seed == nil {
		t.Fatal("BuildSeed returned nil for a long donor")
	}
	leaves := 0
	for _, in := range donor.Instrs {
		if in.Op.IsLeaf() {
			leaves++
		}
	}
	if got, want := seed.Steps(), len(donor.Instrs)-leaves; got != want {
		t.Errorf("the seed carries %d decisions, want %d", got, want)
	}
	t.Logf("%d instructions, %d decisions", len(donor.Instrs), seed.Steps())
}
