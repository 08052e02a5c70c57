package theory_test

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"hap/internal/cluster"
	"hap/internal/collective"
	"hap/internal/dist"
	"hap/internal/graph"
	"hap/internal/hapopt"
	"hap/internal/models"
	"hap/internal/synth"
	"hap/internal/theory"
)

// paperPlan is one plan the planner makes for a paper model, with a fresh
// theory of its graph.
type paperPlan struct {
	name string
	th   *theory.Theory
	prog *dist.Program
}

// paperPlans are the four paper models planned, as hap.Planner plans them,
// on PaperHeterogeneous(1) (het1), PaperHomogeneous(2) (hom2, bench's hom4)
// and PaperHeterogeneous(8) (het8).
var paperPlans = sync.OnceValues(func() ([]paperPlan, error) {
	var plans []paperPlan
	for _, m := range []models.PaperModel{models.ModelVGG19, models.ModelViT, models.ModelBERTBase, models.ModelBERTMoE} {
		for _, c := range []struct {
			name string
			c    *cluster.Cluster
		}{{"het1", cluster.PaperHeterogeneous(1)}, {"hom2", cluster.PaperHomogeneous(2)}, {"het8", cluster.PaperHeterogeneous(8)}} {
			res, err := hapopt.Optimize(context.Background(), models.Build(m, c.c.TotalGPUs()), c.c, hapopt.Options{Synth: synth.Auto()})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", m, c.name, err)
			}
			plans = append(plans, paperPlan{fmt.Sprintf("%s/%s", m, c.name), theory.New(res.Program.Graph), res.Program})
		}
	}
	return plans, nil
})

func mustPaperPlans(tb testing.TB) []paperPlan {
	tb.Helper()
	plans, err := paperPlans()
	if err != nil {
		tb.Fatal(err)
	}
	return plans
}

// acceptedDeletionsFile lists the single-collective deletions Check accepts
// on the paper plans, one "plan collective" per line.
const acceptedDeletionsFile = "testdata/accepted_deletions.txt"

func readAcceptedDeletions(t *testing.T) []string {
	f, err := os.Open(acceptedDeletionsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestCheckMutatedPaperPlans plans the twelve paper plans, each of which
// must pass Check, and mutates each one. Moving a collective other than an
// all-reduce onto another dimension its tensor has must be rejected (107
// such changes when the test was written, 72 once the planner dropped
// dead collectives). So must deleting one collective, except for the
// deletions acceptedDeletionsFile lists: the planner's liveness walk drops
// every collective whose layout nothing reads (63 lines before it did), and
// the three left are reading ambiguities its header explains. The list is a ratchet:
// a deletion it names that Check now rejects fails the test until the line
// goes, and a change must not add lines.
func TestCheckMutatedPaperPlans(t *testing.T) {
	var accepted []string
	dimChanges, deletions := 0, 0
	for _, p := range mustPaperPlans(t) {
		g := p.th.Graph
		stale, err := theory.Check(p.th, p.prog, nil)
		if err != nil {
			t.Fatalf("%s: the plan fails its check: %v", p.name, err)
		}
		t.Logf("%s: %d instructions, %d collectives, %d stale reads", p.name, len(p.prog.Instrs), p.prog.NumComms(), stale)
		for i, in := range p.prog.Instrs {
			if !in.IsComm {
				continue
			}
			mut := &dist.Program{Graph: g, Instrs: slices.Delete(slices.Clone(p.prog.Instrs), i, i+1)}
			deletions++
			if _, err := theory.Check(p.th, mut, nil); err == nil {
				accepted = append(accepted, p.name+" "+in.Text(g))
			}
			if in.Coll == collective.AllReduce {
				continue
			}
			for d := range g.Node(in.Ref).Shape {
				if d == in.Dim || in.Coll == collective.AllToAll && d == in.Dim2 {
					continue // no change, or an all-to-all onto its own dim
				}
				mut := &dist.Program{Graph: g, Instrs: slices.Clone(p.prog.Instrs)}
				mut.Instrs[i].Dim = d
				dimChanges++
				if _, err := theory.Check(p.th, mut, nil); err == nil {
					t.Errorf("%s: moving %s onto dim %d passes the check", p.name, in.Text(g), d)
				}
			}
		}
	}
	t.Logf("%d single-collective deletions, %d accepted; %d dimension changes", deletions, len(accepted), dimChanges)
	want := readAcceptedDeletions(t)
	for _, a := range accepted {
		if !slices.Contains(want, a) {
			t.Errorf("deleting %q passes the check but is not in %s", a, acceptedDeletionsFile)
		}
	}
	for _, w := range want {
		if !slices.Contains(accepted, w) {
			t.Errorf("%s lists %q, which the check now rejects: delete the line", acceptedDeletionsFile, w)
		}
	}
}

// TestCheckAllocs holds Check to at most two allocations and 12 bytes per
// graph node, plus 512 bytes, on VGG19 and ViT × PaperHomogeneous(2). It
// keeps one four-byte state per tensor in one slab and backtracks by
// walking the program again, with no step recorded per instruction and no
// copy of the state per ambiguous reading. Before, BuildSeed's donor
// replay made 25 and 30 allocations there, and 14.7 and 32.2 KiB.
func TestCheckAllocs(t *testing.T) {
	for _, p := range mustPaperPlans(t) {
		if p.name != "VGG19/hom2" && p.name != "ViT/hom2" {
			continue
		}
		check := func() {
			if _, err := theory.Check(p.th, p.prog, nil); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 20
		var before, after runtime.MemStats
		gc := debug.SetGCPercent(-1)
		check()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			check()
		}
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		allocs := float64(after.Mallocs-before.Mallocs) / runs
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		n := p.th.Graph.NumNodes()
		t.Logf("%s: %d nodes, %d instructions: %.1f allocations, %.0f bytes per check", p.name, n, len(p.prog.Instrs), allocs, bytes)
		if allocs > 2 {
			t.Errorf("%s: %.1f allocations per check, want at most 2", p.name, allocs)
		}
		if limit := float64(12*n + 512); bytes > limit {
			t.Errorf("%s: %.0f bytes per check, want at most %.0f (12 per node + 512)", p.name, bytes, limit)
		}
	}
}

// TestLiveAllocationPin holds the liveness walk to zero allocations on
// VGG19 and ViT × PaperHomogeneous(2): Optimize runs it every iteration, on
// the one slab its Checker holds, and it drops in place.
func TestLiveAllocationPin(t *testing.T) {
	for _, p := range mustPaperPlans(t) {
		if p.name != "VGG19/hom2" && p.name != "ViT/hom2" {
			continue
		}
		k := theory.NewChecker(p.th)
		prog := &dist.Program{Graph: p.th.Graph, Instrs: make([]dist.Instruction, 0, len(p.prog.Instrs))}
		gc := debug.SetGCPercent(-1)
		allocs := testing.AllocsPerRun(20, func() {
			prog.Instrs = append(prog.Instrs[:0], p.prog.Instrs...)
			if _, err := k.Live(prog); err != nil {
				t.Fatal(err)
			}
		})
		debug.SetGCPercent(gc)
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per walk, want 0", p.name, allocs)
		}
	}
}

// TestPaperPlansKeepNothingDead walks every paper plan again: the planner
// ran the liveness walk on it, so no instruction, and no collective whose
// layout nothing reads, is left to drop.
func TestPaperPlansKeepNothingDead(t *testing.T) {
	for _, p := range mustPaperPlans(t) {
		prog := p.prog.Clone()
		k := theory.NewChecker(p.th)
		if dropped, err := k.Live(prog); dropped != 0 || err != nil {
			t.Errorf("%s: the walk drops %d instructions (%v)", p.name, dropped, err)
		}
	}
}

// BenchmarkCheck times Check on the paper plans on PaperHomogeneous(2).
func BenchmarkCheck(b *testing.B) {
	for _, p := range mustPaperPlans(b) {
		if !strings.HasSuffix(p.name, "/hom2") {
			continue
		}
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := theory.Check(p.th, p.prog, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// setState is Check's replay with each tensor's properties in a set, the
// form the donor replay's mirror had before mask words: FuzzCheck's oracle.
type setState struct {
	props    map[theory.Property]bool
	moved    map[graph.NodeID]theory.Property // a communicated tensor's new property
	placed   []int8
	computed []bool
	reading  []*theory.Triple
	stale    int
}

func newSetState(n int) *setState {
	s := &setState{
		props:    map[theory.Property]bool{},
		moved:    map[graph.NodeID]theory.Property{},
		placed:   make([]int8, n),
		computed: make([]bool, n),
		reading:  make([]*theory.Triple, n),
	}
	for i := range s.placed {
		s.placed[i] = theory.Unplaced
	}
	return s
}

func (s *setState) clone() *setState {
	c := &setState{
		props:    make(map[theory.Property]bool, len(s.props)),
		moved:    make(map[graph.NodeID]theory.Property, len(s.moved)),
		placed:   slices.Clone(s.placed),
		computed: slices.Clone(s.computed),
		reading:  slices.Clone(s.reading),
		stale:    s.stale,
	}
	for p := range s.props {
		c.props[p] = true
	}
	for ref, p := range s.moved {
		c.moved[ref] = p
	}
	return c
}

// setChecker is Check as a recursive depth-first walk over setStates, one
// copy per ambiguous reading, under the same reading budget: a reading
// past the first is tried only while fewer than theory.ReadingBudget have
// failed.
type setChecker struct {
	th        *theory.Theory
	isOut     []bool
	failed    int
	exhausted bool
}

func newSetChecker(th *theory.Theory) *setChecker {
	m := &setChecker{th: th, isOut: make([]bool, th.Graph.NumNodes())}
	for _, o := range th.Outputs {
		m.isOut[o.Ref] = true
	}
	return m
}

func (m *setChecker) fail() *setState {
	m.failed++
	return nil
}

// check returns the state the first correct reading of instrs ends in, or
// nil.
func (m *setChecker) check(s *setState, instrs []dist.Instruction) *setState {
	g := m.th.Graph
	for ; len(instrs) > 0; instrs = instrs[1:] {
		in := instrs[0]
		if in.Ref < 0 || int(in.Ref) >= len(s.placed) {
			return m.fail()
		}
		n := g.Node(in.Ref)
		switch {
		case in.IsComm:
			src, res, ok := setTransition(in, len(n.Shape))
			if _, moved := s.moved[in.Ref]; !ok || moved || !s.props[src] || s.props[res] {
				return m.fail()
			}
			s.moved[in.Ref] = res
			s.props[res] = true
		case in.Op != n.Kind:
			return m.fail()
		case n.Kind.IsLeaf():
			if s.placed[in.Ref] != theory.Unplaced || in.ShardDim < -1 || in.ShardDim >= len(n.Shape) || in.ShardDim > 127 {
				return m.fail()
			}
			s.placed[in.Ref] = int8(in.ShardDim)
		case s.computed[in.Ref]:
			return m.fail()
		default:
			var matches []*theory.Triple
			for _, tr := range m.th.ByNode[in.Ref] {
				ti := tr.Instr(g)
				if ti.FlopsScaled == in.FlopsScaled && ti.ShardDim == in.ShardDim && m.applicable(s, tr) {
					matches = append(matches, tr)
				}
			}
			switch len(matches) {
			case 0:
				return m.fail()
			case 1:
				m.apply(s, matches[0])
				continue
			}
			for k, tr := range matches {
				if k > 0 && m.failed >= theory.ReadingBudget {
					m.exhausted = true
					return nil
				}
				b := s.clone()
				m.apply(b, tr)
				if out := m.check(b, instrs[1:]); out != nil || m.exhausted {
					return out
				}
			}
			return nil
		}
	}
	for _, o := range m.th.Outputs {
		dim := -1
		if o.Param >= 0 {
			switch pd := s.placed[o.Param]; pd {
			case theory.Unplaced:
				return m.fail()
			case theory.Replicated:
			default:
				dim = int(pd)
			}
		}
		ok := false
		for p := range s.props {
			ok = ok || (p.Ref == o.Ref && o.Acceptable(p, dim))
		}
		if !ok {
			return m.fail()
		}
	}
	return s
}

// setTransition is the property a collective consumes and the one it
// makes, on dimensions its tensor has and a Property can name.
func setTransition(in dist.Instruction, rank int) (src, res theory.Property, ok bool) {
	dim := func(d int) bool { return d >= 0 && d < rank && d <= 127 }
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

func (m *setChecker) applicable(s *setState, tr *theory.Triple) bool {
	for _, p := range tr.Pre() {
		if !s.props[p] {
			return false
		}
	}
	for _, p := range tr.LeafPre() {
		want := theory.Replicated
		if p.Kind == theory.Gather {
			want = p.Dim
		}
		if s.placed[p.Ref] != want {
			return false
		}
	}
	return true
}

// apply computes tr's node on s: a read of a property its tensor's
// collective replaced is stale, and a tensor no required computation reads
// any more, and no output, loses its properties.
func (m *setChecker) apply(s *setState, tr *theory.Triple) {
	for _, p := range tr.Pre() {
		if res, ok := s.moved[p.Ref]; ok && res != p {
			s.stale++
		}
	}
	s.computed[tr.Node] = true
	s.props[tr.Out] = true
	s.reading[tr.Node] = tr
	prune := func(u graph.NodeID) {
		if m.isOut[u] {
			return
		}
		for _, c := range m.th.Consumers[u] {
			if m.th.Required[c] && !s.computed[c] {
				return
			}
		}
		for p := range s.props {
			if p.Ref == u {
				delete(s.props, p)
			}
		}
	}
	for _, u := range m.th.Graph.Node(tr.Node).Inputs {
		if !m.th.Graph.Node(u).Kind.IsLeaf() {
			prune(u)
		}
	}
	prune(tr.Node)
}

// live is Checker.Live's rule on the state s that instrs, an accepted
// program, ends in: an instruction stays when its node is required and,
// for a collective, a required computation of s's reading reads the
// property it made, or its tensor is an output that settles on nothing
// else. With no outputs, everything stays.
func (m *setChecker) live(s *setState, instrs []dist.Instruction) []dist.Instruction {
	if len(m.th.Outputs) == 0 {
		return slices.Clone(instrs)
	}
	read := map[graph.NodeID]bool{}
	for id, tr := range s.reading {
		if tr == nil || !m.th.Required[id] {
			continue
		}
		for _, p := range tr.Pre() {
			if res, ok := s.moved[p.Ref]; ok && res == p {
				read[p.Ref] = true
			}
		}
	}
	for _, o := range m.th.Outputs {
		placed := theory.Replicated
		if o.Param >= 0 {
			placed = s.placed[o.Param]
		}
		if _, ok := s.moved[o.Ref]; ok && !o.Settles(placed, []theory.Property{s.reading[o.Ref].Out}) {
			read[o.Ref] = true
		}
	}
	var kept []dist.Instruction
	for _, in := range instrs {
		if m.th.Required[in.Ref] && (!in.IsComm || read[in.Ref]) {
			kept = append(kept, in)
		}
	}
	return kept
}

// mutateInstrs applies the mutations muts encodes, three bytes each (what,
// where, value), to a copy of instrs: drop, duplicate or swap instructions,
// or rewrite one's ref, shard dim, flop scaling, collective, dims or kind.
// synth's FuzzBuildSeed mutates its donors the same way.
func mutateInstrs(instrs []dist.Instruction, muts []byte) []dist.Instruction {
	out := slices.Clone(instrs)
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

// fuzzCheckPlans are the plans FuzzCheck mutates: a small MLP's on
// PaperHeterogeneous(1), whose collectives the mutations reach often, and
// the paper plans on PaperHomogeneous(2).
func fuzzCheckPlans(tb testing.TB) []paperPlan {
	c := cluster.PaperHeterogeneous(1)
	res, err := hapopt.Optimize(context.Background(), models.Training(models.MLP(64, 96, 96, 96, 96, 96, 96, 32)), c, hapopt.Options{Synth: synth.Auto()})
	if err != nil {
		tb.Fatal(err)
	}
	plans := []paperPlan{{"MLP/het1", theory.New(res.Program.Graph), res.Program}}
	for _, p := range mustPaperPlans(tb) {
		if strings.HasSuffix(p.name, "/hom2") {
			plans = append(plans, p)
		}
	}
	return plans
}

// FuzzCheck mutates the instructions of a real plan and checks the result.
// Check must never panic, and it must agree with the set-based oracle
// above: both accept or both reject (by the reading budget or not), and on
// an accepted program both find the same reading and the same stale reads.
// On an accepted program the liveness walk keeps what the oracle's live
// keeps, and what it keeps passes Check.
func FuzzCheck(f *testing.F) {
	plans := fuzzCheckPlans(f)
	for which := range plans {
		f.Add(uint8(which), []byte{})
		f.Add(uint8(which), []byte{0, 128, 0})             // drop an instruction
		f.Add(uint8(which), []byte{2, 100, 0})             // swap two
		f.Add(uint8(which), []byte{6, 200, 1})             // a collective's dim
		f.Add(uint8(which), []byte{3, 50, 0x7f})           // a ref off the graph
		f.Add(uint8(which), []byte{5, 30, 0, 1, 9, 0})     // flop scaling, a duplicate
		f.Add(uint8(which), []byte{4, 10, 1, 7, 90, 1})    // a shard dim, a kind
		f.Add(uint8(which), []byte{6, 250, 0x85, 0, 1, 0}) // a collective's kind, a drop
	}
	f.Fuzz(func(t *testing.T, which uint8, muts []byte) {
		p := plans[int(which)%len(plans)]
		prog := &dist.Program{Graph: p.th.Graph, Instrs: mutateInstrs(p.prog.Instrs, muts)}
		reading := make([]*theory.Triple, p.th.Graph.NumNodes())
		stale, err := theory.Check(p.th, prog, reading)
		m := newSetChecker(p.th)
		want := m.check(newSetState(p.th.Graph.NumNodes()), prog.Instrs)
		if (err == nil) != (want != nil) {
			t.Fatalf("Check: %v; the oracle accepts: %t", err, want != nil)
		}
		if err != nil {
			if budget := strings.Contains(err.Error(), "no correct reading"); budget != m.exhausted {
				t.Fatalf("Check: %v; the oracle ran out of readings: %t", err, m.exhausted)
			}
			return
		}
		if stale != want.stale {
			t.Fatalf("Check counts %d stale reads, the oracle %d", stale, want.stale)
		}
		for id := range reading {
			if reading[id] != want.reading[id] {
				t.Fatalf("e%d: Check reads %+v, the oracle %+v", id, reading[id], want.reading[id])
			}
		}
		walked := &dist.Program{Graph: prog.Graph, Instrs: slices.Clone(prog.Instrs)}
		k := theory.NewChecker(p.th)
		if _, err := k.Live(walked); err != nil {
			t.Fatalf("Live: %v on a program Check accepts", err)
		}
		if kept := m.live(want, prog.Instrs); !slices.Equal(walked.Instrs, kept) {
			t.Fatalf("Live keeps\n%s\nthe oracle\n%s", walked, &dist.Program{Graph: prog.Graph, Instrs: kept})
		}
		if _, err := theory.Check(p.th, walked, nil); err != nil {
			t.Fatalf("the walked program fails its check: %v\n%s", err, walked)
		}
	})
}
