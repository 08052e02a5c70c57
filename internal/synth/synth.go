// Package synth implements HAP's distributed-program synthesizer: the
// A*-based search of Fig. 10 over the background theory of Sec. 4.2.
//
// Starting from the empty program, the search appends instructions whose
// Hoare-triple preconditions hold, until every required output (the loss and
// each parameter gradient) is materialized acceptably. States are partial
// programs summarized by their property sets; exact-duplicate states keep
// the cheaper program, and strictly-worse states are pruned (lines 9–14 of
// Fig. 10).
//
// The three search-time optimizations of Sec. 4.5 are implemented as:
//
//  1. leaf fusion — Placeholder/Parameter/Ones loaders are emitted together
//     with their first consumer, never enumerated standalone;
//  2. one communication per reference tensor, and none for leaves, enforced
//     with a communicated bitset;
//  3. liveness pruning — a tensor's properties are dropped once every
//     consumer is computed (required outputs are exempt).
//
// Engineering additions documented in DESIGN.md: computation instructions
// within a stage are emitted in canonical (ascending node id) order, which
// collapses cost-equivalent permutations without losing any stage partition;
// an optional beam bound caps expansions per search depth for model-scale
// graphs (exact search remains the default for small graphs); the beam
// merges each level's candidates in a deterministic total order, so the
// emitted program is a function of the inputs alone; a beam state inherits its
// parent's legal collectives instead of re-deriving them every level; and the
// per-expansion hot path is allocation-lean — states recycled whole from a
// per-search arena, a dedup key and a completeness count maintained per
// step, computation and collective costs tabled per B, and binary-searched
// property sets.
package synth

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"hap/internal/cluster"
	"hap/internal/collective"
	"hap/internal/cost"
	"hap/internal/dist"
	"hap/internal/graph"
	"hap/internal/obs"
	"hap/internal/theory"
)

// Options tunes the search. A wall-clock limit is not an option: it is the
// deadline of the context the search runs under (see Run).
type Options struct {
	// BeamWidth caps expansions per depth (0 = exact A*; negative = choose
	// automatically: exact for small graphs, beam for model-scale ones).
	BeamWidth int
	// Workers is ignored: every search runs on the goroutine that calls Run.
	//
	// Deprecated: a no-op kept only because bench/ still sets it; ROADMAP O
	// deletes it with bench/'s calls.
	Workers int
	// DisableGroupedBroadcast removes the grouped-Broadcast All-Gather
	// implementation (ablation "C", Sec. 7.4).
	DisableGroupedBroadcast bool
	// DisableSFB removes replicated-MatMul triples on non-leaf operands,
	// which is what sufficient factor broadcasting synthesizes through.
	DisableSFB bool
	// Seed carries a donor plan's translated decisions (see BuildSeed). The
	// beam fast-forwards through the decision prefix and pins seeded nodes
	// to their donor candidates; automatic mode also narrows the beam, since
	// a pinned level branches only on communication timing. Exact A* ignores
	// the seed. Nil = cold search.
	Seed *Seed
}

// Auto returns BeamWidth -1 options (automatic mode selection).
func Auto() Options { return Options{BeamWidth: -1} }

// maxExpansions aborts a runaway exact search. It bounds memory, not time: an
// adversarial graph can spend minutes inside it, which is what the context
// deadline is for.
const maxExpansions = 4_000_000

// seededBeamWidth is automatic mode's beam width for seeded searches. With
// donor pins collapsing computation branching to one candidate per level,
// the beam explores only communication timing; 4 states reproduce the donor
// plan's quality on near-miss graphs at a fraction of the cold search's
// work (VGG19OneWider: 469 expansions against 6 185 cold; TestGoldenSeededPlan
// pins the count).
const seededBeamWidth = 4

// coldBeamWidth is automatic mode's beam width for cold model-scale
// searches, and for the cold search a dead-ended seeded one falls back to.
const coldBeamWidth = 48

// Stats reports search effort.
type Stats struct {
	Expansions int
	Pushed     int
	Elapsed    time.Duration
	Cost       float64 // estimated t(Q,B) of the returned program
	// Seeded reports whether the search actually consumed a donor seed.
	// False when a seed was supplied but automatic mode routed the graph to
	// exact A*, which ignores seeds.
	Seeded bool
}

const (
	unplaced   = int8(-2)
	replicated = int8(-1)
)

// numColl is the size of the per-ref collective cost tables.
const numColl = int(collective.AllToAll) + 1

// state is a partial program: the property set plus progress bookkeeping.
type state struct {
	// tail indexes the trail record of the step that built this state (-1
	// for the root): the state's program is that record's chain (see
	// program), so an ancestor needs no state of its own.
	tail int32

	props        []theory.Property // sorted canonical property set (live, non-leaf)
	computed     []uint64          // nodes computed
	communicated []uint64          // tensors already communicated (opt 2)
	placed       []int8            // leaf placement: unplaced/replicated/dim
	// front is the communication frontier (beam only; nil in exact A*): the
	// legal collectives of every live, uncommunicated, not-yet-acceptable
	// tensor, in enumeration order — ascending Ref, then the tensor's
	// properties in set order, then commCandidates' try order. A successor
	// inherits it, re-deriving only the tensors its step touched (see
	// inheritFront). The buffer is the arena's; a state holds one only while
	// it sits in the beam.
	front []frontEntry

	closedCost float64   // cost of all closed stages
	openComm   float64   // comm cost of the open stage
	openComp   []float64 // per-device comp time of the open stage
	lastComp   graph.NodeID
	remFlops   float64
	depth      int32 // steps so far (for beam leveling)
	nextReq    int32 // beam only: index into Synthesizer.reqNodes of the next computation
	// unmet counts the outputs not yet in an acceptable form. It only falls:
	// an output's properties are never pruned and a leaf is placed once, so
	// a step re-tests only the outputs it touched (settle).
	unmet    int32
	complete bool
	// h is the set hash of the content key() covers except lastComp: the XOR
	// of one elemCode per property, computed bit, communicated bit and leaf
	// placement, kept current by the writers (see key).
	h uint64
}

func (s *state) effCost() float64 {
	worst := 0.0
	for _, v := range s.openComp {
		if v > worst {
			worst = v
		}
	}
	return s.closedCost + s.openComm + worst
}

func bitGet(b []uint64, i graph.NodeID) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }
func bitSet(b []uint64, i graph.NodeID)      { b[i/64] |= 1 << (uint(i) % 64) }

// setComputed and setCommunicated are the only bitset writers: they add a
// newly set bit to the state key.
func (s *state) setComputed(id graph.NodeID) {
	if bitGet(s.computed, id) {
		return
	}
	bitSet(s.computed, id)
	s.h ^= nodeCode(elemComputed, id)
}

func (s *state) setCommunicated(id graph.NodeID) {
	if bitGet(s.communicated, id) {
		return
	}
	bitSet(s.communicated, id)
	s.h ^= nodeCode(elemCommunicated, id)
}

// place records leaf ref's placement (it was unplaced).
func (s *state) place(ref graph.NodeID, v int8) {
	s.placed[ref] = v
	s.h ^= placedCode(ref, v)
}

// clone allocates a successor of s from the per-search arena, copying
// every slice into the recycled state's own backing: no two states share a
// word, so a state returns to the arena whole whenever it leaves the search.
// A search runs on one goroutine, which is what lets the arena go unlocked.
func (sy *Synthesizer) clone(s *state) *state {
	c := sy.arena.get()
	c.props = append(c.props[:0], s.props...)
	c.computed = append(c.computed[:0], s.computed...)
	c.communicated = append(c.communicated[:0], s.communicated...)
	c.placed = append(c.placed[:0], s.placed...)
	c.closedCost = s.closedCost
	c.openComm = s.openComm
	c.openComp = append(c.openComp[:0], s.openComp...)
	c.lastComp = s.lastComp
	c.remFlops = s.remFlops
	c.depth = s.depth + 1
	c.nextReq = s.nextReq
	c.unmet = s.unmet
	c.complete = false
	c.h = s.h
	return c
}

// retire returns s to the arena whole, backing included: nothing of s is
// read again — its program lives on in the trail.
func (sy *Synthesizer) retire(s *state) {
	sy.dropFront(s)
	sy.arena.put(s)
}

// dropFront hands s's frontier buffer back to the arena: s has left the beam
// (retired, discarded or complete) and nothing will enumerate it again.
func (sy *Synthesizer) dropFront(s *state) {
	sy.arena.putFront(s.front)
	s.front = nil
}

// hasProp binary-searches the sorted property set.
func (s *state) hasProp(p theory.Property) bool {
	lo, hi := 0, len(s.props)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if propLess(s.props[mid], p) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s.props) && s.props[lo] == p
}

// propsOf returns ref's properties: props is sorted by Ref first, so they
// are one contiguous run, found by binary search on Ref alone.
func (s *state) propsOf(ref graph.NodeID) []theory.Property {
	lo, hi := 0, len(s.props)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.props[mid].Ref < ref {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for hi = lo; hi < len(s.props) && s.props[hi].Ref == ref; hi++ {
	}
	return s.props[lo:hi]
}

// addProp inserts p, which s does not hold, into the sorted property set.
func (s *state) addProp(p theory.Property) {
	i := sort.Search(len(s.props), func(i int) bool { return propLess(p, s.props[i]) })
	s.props = append(s.props, theory.Property{})
	copy(s.props[i+1:], s.props[i:])
	s.props[i] = p
	s.h ^= propCode(p)
}

func propLess(a, b theory.Property) bool {
	if a.Ref != b.Ref {
		return a.Ref < b.Ref
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Dim < b.Dim
}

// Element kinds of the state key's set hash, tagged into a code's high byte
// so that equal payloads of different kinds hash apart.
const (
	elemProp = uint64(iota+1) << 56
	elemComputed
	elemCommunicated
	elemPlaced
	elemLastComp
)

// elemCode is the splitmix64 finalizer: a bijection on 64 bits whose every
// output bit depends on every input bit, so the XOR of distinct elements'
// codes collides with that of another set with probability ~2⁻⁶⁴.
func elemCode(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func propCode(p theory.Property) uint64 {
	return elemCode(elemProp | uint64(uint32(p.Ref)) | uint64(p.Kind)<<32 | uint64(uint8(p.Dim))<<40)
}

func nodeCode(kind uint64, id graph.NodeID) uint64 { return elemCode(kind | uint64(uint32(id))) }

func placedCode(ref graph.NodeID, v int8) uint64 {
	return elemCode(elemPlaced | uint64(uint32(ref)) | uint64(uint8(v))<<32)
}

// key returns the 64-bit dedup key over the canonical state content: the
// property set, both bitsets, the leaf placements and the open stage's last
// computation. The first four are a set the writers keep hashed in h — a step
// pays for the elements it changes, not for the state — and lastComp, which
// is overwritten rather than added, is folded in here. Equal content gives
// equal keys whatever path built it (DESIGN.md "State key").
func (s *state) key() uint64 { return s.h ^ nodeCode(elemLastComp, s.lastComp) }

// step is one search step: the computation triple tr, or (tr nil) the
// collective cc.
type step struct {
	tr *theory.Triple
	cc commCand
}

// trailRec is one step in the search's trail: the step, and the record of
// the step before it (-1 at the root). A state's program is the chain its
// tail starts.
type trailRec struct {
	step
	prev int32
}

// trailChunk is the number of records per trail chunk. The trail grows a
// chunk at a time and never copies a record: grown by append, its copies
// cost more than its records (VGG19: ~600 of ~790 KiB).
const trailChunk = 1024

// record appends st, taken from the state whose tail is prev, to the trail
// and returns its index: the successor's tail. A chunk an earlier search
// filled is re-sliced, not reallocated.
func (sy *Synthesizer) record(prev int32, st step) int32 {
	n := len(sy.trail)
	if n == 0 || len(sy.trail[n-1]) == trailChunk {
		if n < cap(sy.trail) && cap(sy.trail[:n+1][n]) == trailChunk {
			sy.trail = sy.trail[:n+1]
			sy.trail[n] = sy.trail[n][:0]
		} else {
			sy.trail = append(sy.trail, make([]trailRec, 0, trailChunk))
		}
		n++
	}
	c := &sy.trail[n-1]
	*c = append(*c, trailRec{step: st, prev: prev})
	return int32((n-1)*trailChunk + len(*c) - 1)
}

// rec returns the trail record at index i.
func (sy *Synthesizer) rec(i int32) *trailRec { return &sy.trail[i/trailChunk][i%trailChunk] }

// program rebuilds the instruction sequence of the state whose tail is tail
// from the trail. A computation's fused leaf loaders are re-derived as
// applyComp emitted them: one per LeafPre whose leaf was unplaced before
// the step.
func (sy *Synthesizer) program(tail int32) *dist.Program {
	var chain []int32
	for i := tail; i >= 0; i = sy.rec(i).prev {
		chain = append(chain, i)
	}
	placed := make([]bool, sy.g.NumNodes())
	p := &dist.Program{Graph: sy.g}
	for k := len(chain) - 1; k >= 0; k-- {
		st := sy.rec(chain[k]).step
		if st.tr == nil {
			p.Instrs = append(p.Instrs, dist.Comm(st.cc.ref, collective.Kind(st.cc.coll), int(st.cc.dim), int(st.cc.dim2)))
			continue
		}
		for _, lp := range st.tr.LeafPre {
			if !placed[lp.Ref] {
				p.Instrs = append(p.Instrs, theory.LeafInstr(sy.g, lp))
			}
		}
		for _, lp := range st.tr.LeafPre {
			placed[lp.Ref] = true
		}
		p.Instrs = append(p.Instrs, st.tr.Instr(sy.g))
	}
	return p
}

type entry struct {
	st    *state
	score float64
}

type pq []*entry

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].score < q[j].score }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(*entry)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Synthesizer holds a search's context. Everything but the ratios is fixed
// at New; SetRatios re-prices the search for another B, so one Synthesizer
// serves a whole Q↔B loop. New carves no search memory: every Run borrows
// a scratch an earlier search returned (the arena, the trail, the beam's
// buffers) and returns it, so searches reuse each other's memory
// process-wide.
type Synthesizer struct {
	g     *graph.Graph
	th    *theory.Theory
	c     *cluster.Cluster
	b     [][]float64
	opt   Options
	words int
	// coldWidth is the beam width of the cold search a dead-ended seeded
	// one falls back to (runCold).
	coldWidth int
	// ctx is the Run context, the search's one clock: its cancellation
	// (client disconnect) latches expired through context.AfterFunc, so the
	// search aborts between expansions without polling ctx on the hot path;
	// its deadline is polled directly (see expiredNow).
	ctx context.Context
	// start and deadline are Run's entry time and ctx.Deadline() (zero =
	// unlimited); their difference is the budget the expiry error names.
	start, deadline time.Time
	// expired latches the context being done, so the search observes a
	// cancellation between expansions (see expiredNow). It is atomic because
	// the AfterFunc callback writes it from another goroutine.
	expired atomic.Bool
	// span is the tracing span covering this search, resolved once from the
	// Run context. Nil when tracing is off — every use is nil-safe and none
	// is inside the search loops (guarded by TestSearchAllocationPin).
	span *obs.Span
	// tally sums the beam's levels over a Run for the search span.
	tally beamTally
	// totalFlopsPerSec is the admissible-heuristic denominator.
	totalFlopsPerSec float64
	outputs          []theory.Output
	// outputIdx maps a node id to its index in outputs, -1 otherwise — a
	// dense table replacing a map lookup in the search's hottest loops.
	outputIdx []int32
	// reqNodes lists the required non-leaf nodes in ascending id order: the
	// strict global topological schedule the beam walks (state.nextReq
	// indexes it, so finding the next computation is O(1) per state).
	reqNodes []graph.NodeID
	// flops holds Graph.Flops of every required node, evaluated once.
	flops []float64
	// compT, commT and commPen table a step's cost under b, per required
	// node (DESIGN.md "Memoized costs"): the search prices the same few
	// steps millions of times. compT[id] holds the per-device times
	// cost.AddCompTimes adds, unscaled then scaled by b (see compTimes).
	// commT and commPen hold cost.CommTime and cost.AddIntraPenalty per
	// (ref, collective kind) — both dim-independent; commPen[ref] flattens
	// the per-kind penalty vectors with stride M. commPen is nil when no
	// device aggregates GPUs: every penalty is then zero.
	compT   [][]float64
	commT   [][numColl]float64
	commPen [][]float64

	// runScratch is the search's working memory — the state arena, the
	// trail, the beam's buffers — borrowed from scratchPool for the length
	// of a Run (arena.go); nil between Runs.
	*runScratch
	// levelHook, when set (tests only), sees each level's states and their
	// unsorted candidate refs before the merge permutes them.
	levelHook func(level []*state, refs []candRef)

	// gradOf maps a parameter to the output tensor whose acceptable forms
	// follow its placement (its gradient), -1 otherwise: the one tensor whose
	// frontier segment a leaf placement changes.
	gradOf []graph.NodeID
}

// New prepares a synthesizer for one (graph, theory, cluster, ratios) tuple.
func New(g *graph.Graph, th *theory.Theory, c *cluster.Cluster, b [][]float64, opt Options) *Synthesizer {
	coldWidth := opt.BeamWidth
	if opt.BeamWidth < 0 {
		// Exact A* is exponential in both graph size and the communication
		// branching (which grows with the device count); keep it for the
		// regimes where it finishes in milliseconds. The node bound is
		// deliberately tight: randomized differential testing showed ~40-node
		// training graphs where exact A* on 2 devices runs for minutes and
		// allocates gigabytes before maxExpansions trips.
		if g.NumNodes() <= 24 && c.M() <= 2 {
			opt.BeamWidth = 0 // exact
		} else if opt.Seed != nil {
			// Seeded searches branch almost only on communication timing —
			// every pinned level emits one computation candidate — so a much
			// narrower beam loses nothing on the unchanged regions and still
			// searches the changed window with full candidate enumeration.
			opt.BeamWidth = seededBeamWidth
		} else {
			opt.BeamWidth = coldBeamWidth
		}
		coldWidth = coldBeamWidth
	}
	if opt.BeamWidth == 0 {
		opt.Seed = nil // exact A* ignores seeds: no pin may filter its segments
	}
	s := &Synthesizer{
		g: g, th: th, c: c, b: b, opt: opt, coldWidth: coldWidth,
		words:            (g.NumNodes() + 63) / 64,
		totalFlopsPerSec: c.TotalFlops(),
		outputs:          th.Outputs,
		outputIdx:        make([]int32, g.NumNodes()),
		gradOf:           make([]graph.NodeID, g.NumNodes()),
		compT:            make([][]float64, g.NumNodes()),
		commT:            make([][numColl]float64, g.NumNodes()),
	}
	for i := range s.outputIdx {
		s.outputIdx[i], s.gradOf[i] = -1, -1
	}
	for i, o := range th.Outputs {
		s.outputIdx[o.Ref] = int32(i)
		if o.Param >= 0 {
			s.gradOf[o.Param] = o.Ref
		}
	}
	for i := range g.Nodes {
		id := graph.NodeID(i)
		if th.Required[id] && !g.Node(id).Kind.IsLeaf() {
			s.reqNodes = append(s.reqNodes, id)
		}
	}
	// flops and the compute table share one slab.
	m := c.M()
	comp := make([]float64, g.NumNodes()+2*m*len(s.reqNodes))
	s.flops, comp = comp[:g.NumNodes()], comp[g.NumNodes():]
	for _, id := range s.reqNodes {
		s.flops[id] = g.Flops(id)
		s.compT[id], comp = comp[:2*m:2*m], comp[2*m:]
	}
	if slices.ContainsFunc(c.Devices, func(d cluster.VirtualDevice) bool { return d.GPUs > 1 }) {
		s.commPen = make([][]float64, g.NumNodes())
		stride := numColl * m
		pen := make([]float64, stride*len(s.reqNodes))
		for _, id := range s.reqNodes {
			s.commPen[id], pen = pen[:stride:stride], pen[stride:]
		}
	}
	s.price()
	return s
}

// SetRatios re-prices the search for ratios b: the next Run searches under
// them, exactly as a fresh New(…, b, …) would.
func (sy *Synthesizer) SetRatios(b [][]float64) {
	sy.b = b
	sy.price()
}

// price fills compT, commT and commPen under sy.b, in place. A compT entry
// is the quotient cost.AddCompTimes adds, computed by the same operations in
// the same order, so a tabled score keeps the bits of a priced one.
func (sy *Synthesizer) price() {
	m := sy.c.M()
	for _, id := range sy.reqNodes {
		flops, comp, seg := sy.flops[id], sy.compT[id], sy.g.Segment(id)
		for j, d := range sy.c.Devices {
			comp[j] = flops / d.Flops()
			comp[m+j] = flops * sy.b[seg][j] / d.Flops()
		}
		for k := 0; k < numColl; k++ {
			in := dist.Comm(id, collective.Kind(k), 0, 0)
			sy.commT[id][k] = cost.CommTime(sy.c, sy.g, in, sy.b)
			if sy.commPen != nil {
				pen := sy.commPen[id][k*m : (k+1)*m]
				clear(pen)
				cost.AddIntraPenalty(sy.c, sy.g, in, sy.b, pen)
			}
		}
	}
}

// compTimes returns the per-device times tr adds to the open stage under
// sy.b: flops scaled by the device's ratio when tr shards its work.
func (sy *Synthesizer) compTimes(tr *theory.Triple) []float64 {
	comp, m := sy.compT[tr.Node], sy.c.M()
	if tr.FlopsScaled {
		return comp[m:]
	}
	return comp[:m]
}

// Synthesize runs the search under ctx and returns the best program found.
// Cancelling ctx, or its deadline passing, aborts an in-flight search within
// one expansion.
func Synthesize(ctx context.Context, g *graph.Graph, th *theory.Theory, c *cluster.Cluster, b [][]float64, opt Options) (*dist.Program, Stats, error) {
	return New(g, th, c, b, opt).Run(ctx)
}

// rootState builds the empty-program search root from the arena.
func (sy *Synthesizer) rootState() *state {
	g := sy.g
	root := sy.arena.get()
	root.tail = -1
	root.computed = root.computed[:sy.words]
	root.communicated = root.communicated[:sy.words]
	clear(root.computed)
	clear(root.communicated)
	root.props = root.props[:0]
	root.placed = root.placed[:g.NumNodes()]
	root.openComp = root.openComp[:sy.c.M()]
	clear(root.openComp)
	root.closedCost, root.openComm, root.remFlops = 0, 0, 0
	root.lastComp = -1
	root.depth, root.nextReq = 0, 0
	root.h = 0
	for i := range root.placed {
		root.placed[i] = unplaced
	}
	for _, id := range sy.reqNodes {
		root.remFlops += sy.flops[id]
	}
	// The empty program holds no property, so no output is acceptable yet.
	root.unmet = int32(len(sy.outputs))
	root.complete = false
	return root
}

// Run executes the search under ctx: exact A* (Fig. 10) when BeamWidth is
// zero, a level-synchronized beam search otherwise.
// ctx is the search's only clock: its deadline is the wall-clock budget, its
// cancellation an abort. The search polls both once per expansion, so either
// stops it within one expansion.
func (sy *Synthesizer) Run(ctx context.Context) (*dist.Program, Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sy.ctx, sy.start = ctx, time.Now()
	sy.deadline, _ = ctx.Deadline()
	sy.tally = beamTally{}
	// One context lookup per search; nil (tracing off) makes every span call
	// below a no-op.
	sy.span = obs.SpanFromContext(ctx).Child("search")
	if sy.span != nil {
		if sy.opt.BeamWidth > 0 {
			sy.span.SetAttrStr("mode", "beam")
			sy.span.SetAttrInt("beam_width", int64(sy.opt.BeamWidth))
		} else {
			sy.span.SetAttrStr("mode", "astar")
		}
		sy.span.SetAttrInt("nodes", int64(sy.g.NumNodes()))
	}
	// An already-cancelled context must abort deterministically, not race
	// the AfterFunc callback against a fast search.
	sy.expired.Store(ctx.Err() != nil)
	// Nothing of an earlier search survives it: its states and trail
	// records are scratch for this one, which gives them back below, once
	// the program is rebuilt.
	sy.borrow()
	// ctx cancellation sets the expired latch the search already polls,
	// keeping ctx.Err() (a mutex acquisition in the common cancelCtx case)
	// off the per-expansion hot path. A context that can never be cancelled
	// registers nothing (three allocations a search would not use).
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { sy.expired.Store(true) })
		defer stop()
	}
	root := sy.rootState()

	var best *state
	var stats Stats
	var err error
	if sy.opt.BeamWidth > 0 {
		from := root
		if sy.opt.Seed != nil {
			var applied int
			var done bool
			from, applied, done = sy.fastForward(root)
			if sy.span != nil {
				sy.span.SetAttrFloat("seed_distance", sy.opt.Seed.Distance)
				sy.span.SetAttrInt("seed_prefix", int64(applied))
			}
			if done {
				// The whole donor program replayed: the state is complete and
				// byte-identical to the donor — nothing left to search.
				best, stats = from, Stats{Pushed: applied}
			}
		}
		if best == nil {
			best, stats, err = sy.runBeam(from)
		}
		stats.Seeded = sy.opt.Seed != nil
		if errors.Is(err, errNoProgram) && stats.Seeded {
			best, stats, err = sy.runCold(stats)
		}
	} else {
		best, stats, err = sy.runAStar(root)
	}
	stats.Elapsed = time.Since(sy.start)
	if err != nil {
		sy.giveBack()
		sy.endSpan(stats, err)
		return nil, stats, err
	}
	stats.Cost = best.effCost()
	sy.endSpan(stats, nil)
	p := sy.program(best.tail)
	sy.giveBack()
	return p, stats, nil
}

// endSpan records the search's totals on its span and ends it: the effort,
// the beam's level sums, and the error or the cost. No-op untraced.
func (sy *Synthesizer) endSpan(stats Stats, err error) {
	sp := sy.span
	if sp == nil {
		return
	}
	sp.SetAttrInt("expansions", int64(stats.Expansions))
	if sy.opt.BeamWidth > 0 {
		t := &sy.tally
		sp.SetAttrInt("levels", int64(t.levels))
		sp.SetAttrInt("candidates", int64(t.candidates))
		sp.SetAttrInt("read", int64(t.read))
		sp.SetAttrInt("sorted", int64(t.sorted))
		if t.aborted {
			sp.SetAttrBool("aborted", true)
			sp.SetAttrInt("depth", int64(t.abortDepth))
			sp.SetAttrInt("states", int64(t.abortStates))
		}
	}
	if err != nil {
		sp.SetAttrStr("error", err.Error())
	} else {
		sp.SetAttrInt("pushed", int64(stats.Pushed))
		sp.SetAttrFloat("cost", stats.Cost)
	}
	sp.End()
}

// runAStar is the exact search of Fig. 10.
func (sy *Synthesizer) runAStar(root *state) (*state, Stats, error) {
	var queue pq
	heap.Push(&queue, &entry{st: root, score: sy.score(root)})
	visited := map[uint64]float64{root.key(): root.effCost()}

	var best *state
	bestCost := 0.0
	stats := Stats{Pushed: 1}

	for queue.Len() > 0 {
		e := heap.Pop(&queue).(*entry)
		s := e.st
		if best != nil && e.score >= bestCost {
			break // nothing cheaper remains (Fig. 10 termination)
		}
		if s.complete {
			best, bestCost = s, s.effCost()
			break
		}
		stats.Expansions++
		if stats.Expansions > maxExpansions {
			return nil, stats, fmt.Errorf("synth: exceeded %d expansions", maxExpansions)
		}
		if err := sy.overBudget(stats.Expansions); err != nil {
			return nil, stats, err
		}
		sy.expandBuf = sy.expandFrom(s, sy.expandBuf[:0])
		for _, next := range sy.expandBuf {
			k := next.key()
			ec := next.effCost()
			if prev, ok := visited[k]; ok && prev <= ec+1e-15 {
				continue
			}
			visited[k] = ec
			if next.complete && (best == nil || ec < bestCost) {
				best, bestCost = next, ec
			}
			heap.Push(&queue, &entry{st: next, score: sy.score(next)})
			stats.Pushed++
		}
	}
	if best == nil {
		return nil, stats, fmt.Errorf("synth: no complete program found")
	}
	return best, stats, nil
}

// candRef is the compact record the merge sorts: a candidate's score, its
// position in the level's enumeration order and the level index of the state
// it extends — 16 bytes, so the sort moves cache lines, not structs, and
// nothing else is ever written per candidate. The merge is lazy
// (lazysort.go): a level of C candidates costs about 2C comparisons for the
// first partitions plus a short sorted prefix, not C log C.
type candRef struct {
	score  float64
	idx    int32 // position in the level's enumeration order (see candSpan)
	parent int32 // index of the candidate's state in the level
}

// candSpan locates one state's candidates in a level's enumeration: they are
// refs[start:next.start] — its applicable computation triples, which are
// comps[comps:next.comps], then its frontier entries in order.
type candSpan struct {
	start, comps int32
}

// levelCands is a level's scored candidates: one ref per candidate, the
// computation triples among them, and one span per state scored — plus a
// closing sentinel once the level is whole. Communication candidates are
// not stored: they are the states' frontiers.
type levelCands struct {
	refs  []candRef
	comps []*theory.Triple
	spans []candSpan
}

func (lc *levelCands) reset() {
	lc.refs, lc.comps, lc.spans = lc.refs[:0], lc.comps[:0], lc.spans[:0]
}

// scoreCandidates scores every successor of s without materializing it,
// appending to lc. It reads only s and the search context.
func (sy *Synthesizer) scoreCandidates(s *state, lc *levelCands) {
	parent := int32(len(lc.spans))
	lc.spans = append(lc.spans, candSpan{start: int32(len(lc.refs)), comps: int32(len(lc.comps))})
	// Computation: strict global topological order — only the lowest
	// uncomputed required node, the natural forward-then-backward training
	// schedule — so that leaf placements are decided by forward consumers;
	// without this, a beam thread can place a parameter from its backward
	// transpose first and corner itself (the exact queue recovers through
	// alternative orderings, a beam cannot). The beam computes required
	// nodes in ascending id order, so the computed set is always a prefix of
	// reqNodes and nextReq finds the candidate node in O(1).
	if int(s.nextReq) < len(sy.reqNodes) {
		id := sy.reqNodes[s.nextReq]
		trs := sy.th.ByNode[id]
		// A seeded node emits only its pinned candidate while the pin is
		// applicable; an inapplicable pin (changed-region interference)
		// degrades to full enumeration.
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
				score := sy.compDelta(s, tr) + (s.remFlops-sy.flops[id])/sy.totalFlopsPerSec
				lc.refs = append(lc.refs, candRef{score: score, idx: int32(len(lc.refs)), parent: parent})
				lc.comps = append(lc.comps, tr)
			}
		}
	}
	// Communication: the inherited frontier, each entry two adds away from
	// its score. The association is the per-candidate sum's —
	// ((closedCost+openComm)+worst)+commT, then +remFlops/total — so every
	// score is the bit pattern a from-scratch enumeration computes
	// (TestFrontierMatchesRebuild).
	pre, rem := s.effCost(), s.remFlops/sy.totalFlopsPerSec
	base := len(lc.refs)
	lc.refs = slices.Grow(lc.refs, len(s.front))[:base+len(s.front)]
	for i, out := 0, lc.refs[base:]; i < len(out); i++ {
		out[i] = candRef{score: pre + s.front[i].off + rem, idx: int32(base + i), parent: parent}
	}
}

// candidate returns r's step and the level index of its parent. r carries
// the parent, whose span and its successor's (the closing sentinel's, for
// the last state) bound r.idx: the local index picks a computation triple
// or a frontier entry. Paid only for the candidates phase 3 reads.
func (lc *levelCands) candidate(level []*state, r candRef) (step, int) {
	pi := int(r.parent)
	sp, end := lc.spans[pi], lc.spans[pi+1]
	local := r.idx - sp.start
	if nc := end.comps - sp.comps; local >= nc {
		return step{cc: level[pi].front[local-nc].cc}, pi
	}
	return step{tr: lc.comps[sp.comps+local]}, pi
}

// childKey is key() of the state st would build from s, computed from s and
// the step alone — O(step), nothing cloned — so phase 3 rejects a duplicate
// before paying for it. Each kind mirrors its applier's writes to the key:
// commKey applyComm's, compKey applyComp's (TestStateKeyMatchesRebuild and
// FuzzFrontierWalk hold every materialized child to it).
func (sy *Synthesizer) childKey(s *state, st step) uint64 {
	if st.tr == nil {
		return commKey(s, st.cc)
	}
	return sy.compKey(s, st.tr)
}

// commKey: the communicated bit and the result property are new (the
// frontier holds only uncommunicated tensors lacking the result), and the
// open stage closes.
func commKey(s *state, cc commCand) uint64 {
	return s.h ^ nodeCode(elemCommunicated, cc.ref) ^ propCode(cc.result()) ^ nodeCode(elemLastComp, -1)
}

// compKey: each leaf placement the step makes, the computed bit, Out if s
// lacks it, and every property pruneDead drops — an input named twice (x·x)
// dies once. When the computed node itself dies, Out is added and dropped,
// which cancels.
func (sy *Synthesizer) compKey(s *state, tr *theory.Triple) uint64 {
	h := s.h ^ nodeCode(elemLastComp, tr.Node)
	for _, p := range tr.LeafPre {
		if s.placed[p.Ref] == unplaced {
			h ^= placedCode(p.Ref, leafPlacement(p))
		}
	}
	if !bitGet(s.computed, tr.Node) {
		h ^= nodeCode(elemComputed, tr.Node)
	}
	if sy.dead(s, tr.Node, tr.Node) {
		for _, p := range s.propsOf(tr.Node) {
			h ^= propCode(p)
		}
	} else if !s.hasProp(tr.Out) {
		h ^= propCode(tr.Out)
	}
	ins := sy.g.Node(tr.Node).Inputs
	for i, u := range ins {
		if sy.g.Node(u).Kind.IsLeaf() || slices.Contains(ins[:i], u) || !sy.dead(s, u, tr.Node) {
			continue
		}
		for _, p := range s.propsOf(u) {
			h ^= propCode(p)
		}
	}
	return h
}

// materialize builds the state st takes s to. A computation advances nextReq
// past the node it computes.
func (sy *Synthesizer) materialize(s *state, st step) *state {
	if st.tr == nil {
		return sy.applyComm(s, st.cc)
	}
	ns := sy.applyComp(s, st.tr)
	ns.nextReq = s.nextReq + 1
	return ns
}

// runBeam is the level-synchronized beam search used for model-scale graphs:
// level k holds partial programs with k instructions; the best BeamWidth
// states per level (by A* score) advance.
//
// Each level runs in three phases. (1) Scoring walks the level's states in
// order: per state, the next node's applicable triples, priced from the
// per-B compute table, and one add per entry of the frontier it inherited.
// The refs, each carrying its parent's index, are in (parent index,
// candidate index) order. (2) The merge order is a deterministic sort by
// score over that fixed order — so the surviving beam, and therefore the
// emitted program, is a function of the inputs alone — computed lazily,
// only as far as phase 3 reads (lazysort.go). (3) Survivors
// are materialized and selected serially, in merge order, with dedup by
// state key — computed before the candidate is built, so a duplicate costs a
// key and a map probe; a built child updates its completeness count from the
// outputs its step touched. Every state of the level then goes back to the
// arena whole.
// Bounded suboptimality traded for a hard bound on search effort; see
// DESIGN.md.
func (sy *Synthesizer) runBeam(root *state) (*state, Stats, error) {
	var stats Stats
	var best *state
	bestCost := 0.0
	bs := &sy.beam
	if bs.visited == nil {
		bs.visited = map[uint64]struct{}{}
	}
	lc, visited := &bs.lc, bs.visited
	next := bs.next[:0]
	level := append(bs.level[:0], root)
	// The buffers go back to the scratch however the search ends, grown.
	defer func() { bs.next, bs.level = next[:0], level[:0] }()
	maxLevels := 3*sy.g.NumNodes() + 100
	t := &sy.tally
	for depth := 0; depth < maxLevels && len(level) > 0; depth++ {
		n := len(level)
		// Phase 1: scoring, in (parent, enumeration index) order — the fixed
		// input the merge's sort permutes.
		lc.reset()
		for pi := 0; pi < n; pi++ {
			stats.Expansions++
			if err := sy.overBudget(stats.Expansions); err != nil {
				t.aborted, t.abortDepth, t.abortStates = true, depth, n
				return nil, stats, err
			}
			sy.scoreCandidates(level[pi], lc)
		}
		lc.spans = append(lc.spans, candSpan{start: int32(len(lc.refs)), comps: int32(len(lc.comps))})
		// Phase 2: deterministic merge order. The order is that of an unstable
		// pdqsort on score alone — ties come out in its deterministic
		// permutation of the enumeration order, pinned by TestGoldenPlanIdentity —
		// but only as much of it as phase 3 reads is ever computed (lazysort.go).
		refs := lc.refs
		if sy.levelHook != nil {
			sy.levelHook(level, refs)
		}
		sy.merge.reset(refs)
		// Phase 3: materialize + select survivors in merge order.
		clear(visited)
		next = next[:0]
		read := 0
		for read < len(refs) {
			if read >= sy.merge.sorted {
				sy.merge.advance()
			}
			r := refs[read]
			read++
			if best != nil && r.score >= bestCost {
				break // sorted: nothing further can improve
			}
			st, pi := lc.candidate(level, r)
			stats.Pushed++
			// A duplicate is rejected by its key before it is built. Equal
			// keys mean equal content, hence equal completeness: visited
			// holds only incomplete states, so no complete child is skipped.
			key := sy.childKey(level[pi], st)
			if _, ok := visited[key]; ok {
				continue
			}
			ns := sy.materialize(level[pi], st)
			if ns.complete {
				if ec := ns.effCost(); best == nil || ec < bestCost {
					sy.dropFront(ns) // never expanded
					best, bestCost = ns, ec
				} else {
					sy.retire(ns)
				}
				continue
			}
			visited[key] = struct{}{}
			next = append(next, ns)
			if len(next) >= sy.opt.BeamWidth {
				break
			}
		}
		// Retire this level: every state goes back to the arena whole — its
		// program lives on in the trail.
		for _, s := range level {
			sy.retire(s)
		}
		t.levels++
		t.candidates += len(refs)
		t.read += read
		t.sorted += sy.merge.sorted
		level, next = next, level
	}
	if best == nil {
		return nil, stats, errNoProgram
	}
	return best, stats, nil
}

// errNoProgram is a beam search's report that every state dead-ended.
var errNoProgram = errors.New("synth: beam search found no complete program")

// runCold repeats a seeded beam search that found no program without the
// seed, at the cold beam width: a donor's pins can leave every state of the
// narrow seeded beam dead-ended on a graph a cold search plans. The stats
// add up both searches' effort.
func (sy *Synthesizer) runCold(seeded Stats) (*state, Stats, error) {
	opt := sy.opt
	defer func() { sy.opt = opt }()
	sy.opt.Seed, sy.opt.BeamWidth = nil, sy.coldWidth
	sy.arena.rewind()
	sy.dropTrail()
	best, stats, err := sy.runBeam(sy.rootState())
	stats.Expansions += seeded.Expansions
	stats.Pushed += seeded.Pushed
	return best, stats, err
}

// beamScratch is runBeam's per-level working set, kept in the run scratch
// so a search on a reused scratch allocates none of it: the level's
// candidates, the dedup set, and the current and next levels.
type beamScratch struct {
	lc          levelCands
	visited     map[uint64]struct{}
	next, level []*state
}

// beamTally is what the search span reports of the beam's levels: four
// sums over every level a Run searched (both searches of a cold fallback) —
// the levels, their candidates, how many of those the selection loop read
// and how many the lazy merge sorted — and, when a deadline or a
// cancellation cut the search short, the depth and live state count of the
// level it stopped at. Integer adds per level, kept whether or not the
// search is traced.
type beamTally struct {
	levels, candidates, read, sorted int
	aborted                          bool
	abortDepth, abortStates          int
}

// overBudget reports a passed deadline or a ctx cancellation. Checked once
// per expansion — the search's unit of real work, whose cost dwarfs the latch
// read — so a search never overshoots its budget by more than one expansion.
func (sy *Synthesizer) overBudget(expansions int) error {
	if !sy.expiredNow() {
		return nil
	}
	// The deadline poll can run ahead of the context's own timer, so a nil or
	// deadline Err here is the budget; anything else is a cancellation.
	if err := sy.ctx.Err(); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("synth: search aborted after %d expansions: %w", expansions, err)
	}
	return fmt.Errorf("synth: exceeded %v time budget after %d expansions", sy.deadline.Sub(sy.start), expansions)
}

// expiredNow reports whether the context is done (the latch the AfterFunc
// callback sets) or its deadline has passed (polled, not waiting for the
// context's own timer).
func (sy *Synthesizer) expiredNow() bool {
	return sy.expired.Load() || !sy.deadline.IsZero() && time.Now().After(sy.deadline)
}

// score is cost(Q) + ecost(Q): the A* priority. ecost is the remaining flops
// at full-cluster speed (infinite bandwidth), an admissible lower bound.
func (sy *Synthesizer) score(s *state) float64 {
	return s.effCost() + s.remFlops/sy.totalFlopsPerSec
}

// expandFrom enumerates exact A*'s successors of s into out. The next
// computation must have a node id above the last one in the open stage,
// collapsing cost-equivalent permutations: any program can be reordered so
// comps within a stage ascend. (The beam enumerates its own candidates, in
// strict global topological order: see scoreCandidates.)
func (sy *Synthesizer) expandFrom(s *state, out []*state) []*state {
	g := sy.g
	for i := int(s.lastComp) + 1; i < g.NumNodes(); i++ {
		id := graph.NodeID(i)
		if !sy.th.Required[id] || bitGet(s.computed, id) || g.Node(id).Kind.IsLeaf() {
			continue
		}
		if !sy.ready(s, id) {
			continue
		}
		for _, tr := range sy.th.ByNode[id] {
			if sy.opt.DisableSFB && theory.IsSFB(sy.g, tr) {
				continue
			}
			if ns := sy.applyComp(s, tr); ns != nil {
				out = append(out, ns)
			}
		}
	}
	// Communication successors: the frontier, built here rather than carried —
	// the exact queue can hold millions of states.
	sy.segBuf = sy.appendFrontier(s, sy.segBuf[:0])
	for _, e := range sy.segBuf {
		out = append(out, sy.applyComm(s, e.cc))
	}
	return out
}

// ready reports whether every non-leaf input of id is computed.
func (sy *Synthesizer) ready(s *state, id graph.NodeID) bool {
	for _, in := range sy.g.Node(id).Inputs {
		if sy.g.Node(in).Kind.IsLeaf() {
			continue
		}
		if !bitGet(s.computed, in) {
			return false
		}
	}
	return true
}

// compApplicable checks a computation triple's preconditions without
// materializing the successor state.
func (sy *Synthesizer) compApplicable(s *state, tr *theory.Triple) bool {
	for _, p := range tr.Pre {
		if !s.hasProp(p) {
			return false
		}
	}
	for _, p := range tr.LeafPre {
		if got := s.placed[p.Ref]; got != leafPlacement(p) && got != unplaced {
			return false
		}
	}
	return true
}

// leafPlacement is the placement a leaf precondition asks for.
func leafPlacement(p theory.Property) int8 {
	if p.Kind == theory.Gather {
		return int8(p.Dim)
	}
	return replicated
}

// compDelta returns the effective cost of s with tr appended to its open
// stage, without building the successor (the beam's candidate-scoring fast
// path): one add per device from the compute table.
func (sy *Synthesizer) compDelta(s *state, tr *theory.Triple) float64 {
	worst := 0.0
	for j, dt := range sy.compTimes(tr) {
		if t := s.openComp[j] + dt; t > worst {
			worst = t
		}
	}
	return s.closedCost + s.openComm + worst
}

// applyComp attempts to append tr (with fused leaf loaders); nil if the
// preconditions do not hold.
func (sy *Synthesizer) applyComp(s *state, tr *theory.Triple) *state {
	if !sy.compApplicable(s, tr) {
		return nil
	}
	ns := sy.clone(s)
	ns.tail = sy.record(s.tail, step{tr: tr})
	for _, p := range tr.LeafPre {
		if s.placed[p.Ref] == unplaced {
			ns.place(p.Ref, leafPlacement(p))
		}
	}
	ns.setComputed(tr.Node)
	if !ns.hasProp(tr.Out) {
		ns.addProp(tr.Out)
	}
	ns.lastComp = tr.Node
	ns.remFlops -= sy.flops[tr.Node]
	if sy.flops[tr.Node] != 0 { // cost.AddCompTimes' skip: x+0 is not always x
		for j, dt := range sy.compTimes(tr) {
			ns.openComp[j] += dt
		}
	}
	sy.pruneDead(ns, tr.Node)
	// What this step changed: the new node's first property, inputs
	// pruneDead just dropped, and the gradient of each leaf placed here (its
	// acceptable forms follow the placement). The frontier re-derives these
	// tensors' segments, and the outputs among them are the only ones the
	// step can have made acceptable. Each was unacceptable in s: a gradient's
	// parameter was unplaced, and tr.Node, which no caller computes twice,
	// held no property.
	sy.touched = touch(sy.touched[:0], tr.Node)
	for _, u := range sy.g.Node(tr.Node).Inputs {
		if !sy.g.Node(u).Kind.IsLeaf() && len(ns.propsOf(u)) == 0 {
			sy.touched = touch(sy.touched, u)
		}
	}
	for _, p := range tr.LeafPre {
		if gr := sy.gradOf[p.Ref]; gr >= 0 && s.placed[p.Ref] == unplaced {
			sy.touched = touch(sy.touched, gr)
		}
	}
	if sy.opt.BeamWidth > 0 {
		sy.inheritFront(ns, s, sy.touched)
	}
	for _, ref := range sy.touched {
		sy.settle(ns, ref)
	}
	ns.complete = ns.unmet == 0
	return ns
}

// settle counts ref off ns.unmet when ref is an output acceptable in ns. The
// step to ns must have touched ref, which was unacceptable in its parent:
// an acceptable output stays so (its properties are never pruned, its
// parameter never re-placed), and an untouched one did not change.
func (sy *Synthesizer) settle(ns *state, ref graph.NodeID) {
	if sy.acceptable(ns, ref) {
		ns.unmet--
	}
}

// acceptable reports whether ref is an output in an acceptable form in s.
func (sy *Synthesizer) acceptable(s *state, ref graph.NodeID) bool {
	oi := sy.outputIdx[ref]
	return oi >= 0 && sy.outputAcceptable(s, sy.outputs[oi])
}

// commCand is a not-yet-materialized communication successor: collective
// coll on tensor ref over dim (onto dim2 for All-To-All), establishing
// property (ref, resKind, resDim). Sixteen bytes — the beam copies millions;
// the dist.Instruction is built only on materialization (applyComm).
type commCand struct {
	ref       graph.NodeID
	coll      uint8 // collective.Kind
	dim, dim2 int8
	resKind   theory.PropKind
	resDim    int8
}

// frontEntry is one legal collective of a state's communication frontier:
// the candidate and its memoized commT[ref][coll], the only part of its score
// that is the candidate's own — 24 bytes.
type frontEntry struct {
	cc  commCand
	off float64
}

// result is the property cc establishes.
func (cc commCand) result() theory.Property {
	return theory.Property{Ref: cc.ref, Kind: cc.resKind, Dim: cc.resDim}
}

// matches reports whether cc is the collective a seed pinned for its tensor.
func (cc commCand) matches(pin pinnedComm) bool {
	return collective.Kind(cc.coll) == pin.coll && int(cc.dim) == pin.dim && int(cc.dim2) == pin.dim2
}

// commCandidates yields the communication instructions applicable to p,
// without materializing states. run is p.Ref's properties in s: every result
// is a property of the same tensor, so "already established" is a scan of
// those few entries, not a search of the whole set. appendSegment is the
// only caller: a tensor's legal collectives have one definition.
func (sy *Synthesizer) commCandidates(s *state, p theory.Property, run []theory.Property, out []frontEntry) []frontEntry {
	g := sy.g
	rank := len(g.Node(p.Ref).Shape)
	// An output tensor is communicated at most once (opt 2), so that one
	// communication must land directly on an acceptable final form; anything
	// else makes the output permanently unacceptable.
	oi := sy.outputIdx[p.Ref]
	isOutput := oi >= 0
	var output theory.Output
	outDim := -1
	if isOutput {
		output = sy.outputs[oi]
		if output.Param >= 0 {
			switch pd := s.placed[output.Param]; pd {
			case unplaced:
				return out // placement unknown: communicating now could corner us
			case replicated:
				outDim = -1
			default:
				outDim = int(pd)
			}
		}
	}
	try := func(coll collective.Kind, d, d2 int, res theory.Property) {
		for _, q := range run {
			if q == res {
				return // postcondition subsumed: strictly worse (line 7)
			}
		}
		if isOutput {
			if !output.Acceptable(res, outDim) {
				return
			}
		} else if !sy.th.IsWanted(res) {
			return // no triple's precondition can use the result
		}
		out = append(out, frontEntry{
			cc:  commCand{ref: p.Ref, coll: uint8(coll), dim: int8(d), dim2: int8(d2), resKind: res.Kind, resDim: res.Dim},
			off: sy.commT[p.Ref][coll],
		})
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

// appendSegment appends ref's segment in state s — the collectives legal on
// ref right now, in enumeration order — to out: nothing once ref is
// communicated (opt 2) or dead, nothing for an output already in an
// acceptable form (more communication is waste), else each of its
// properties' candidates. A tensor the seed pinned keeps, per property, only
// its donor collective when that is legal here; timing — which level takes
// it — stays free. The result depends on s only through ref's properties,
// its communicated bit and, for a gradient, its parameter's placement, which
// is what lets a successor inherit every segment its step did not touch.
func (sy *Synthesizer) appendSegment(s *state, ref graph.NodeID, out []frontEntry) []frontEntry {
	if bitGet(s.communicated, ref) {
		return out
	}
	if sy.acceptable(s, ref) {
		return out
	}
	run := s.propsOf(ref)
	for _, p := range run {
		base := len(out)
		out = sy.commCandidates(s, p, run, out)
		if sd := sy.opt.Seed; sd != nil && sd.commPin[ref].valid {
			for _, e := range out[base:] {
				if e.cc.matches(sd.commPin[ref]) {
					out = append(out[:base], e)
					break
				}
			}
		}
	}
	return out
}

// appendFrontier appends s's whole frontier, built from scratch: the segment
// of every tensor that has properties, in ascending Ref order.
func (sy *Synthesizer) appendFrontier(s *state, out []frontEntry) []frontEntry {
	for i := 0; i < len(s.props); {
		ref := s.props[i].Ref
		out = sy.appendSegment(s, ref, out)
		for i++; i < len(s.props) && s.props[i].Ref == ref; i++ {
		}
	}
	return out
}

// touch inserts ref into the ascending, duplicate-free set refs.
func touch(refs []graph.NodeID, ref graph.NodeID) []graph.NodeID {
	i, found := slices.BinarySearch(refs, ref)
	if found {
		return refs
	}
	return slices.Insert(refs, i, ref)
}

// inheritFront gives ns, a fresh successor of s, its frontier: s's, with the
// segment of each touched tensor (ascending) re-derived in ns and every
// other segment copied — they cannot have changed (see appendSegment).
func (sy *Synthesizer) inheritFront(ns, s *state, touched []graph.NodeID) {
	out, rest := sy.arena.getFront(), s.front
	for _, ref := range touched {
		i := 0
		for i < len(rest) && rest[i].cc.ref < ref {
			i++
		}
		out = append(out, rest[:i]...)
		for i < len(rest) && rest[i].cc.ref == ref {
			i++
		}
		rest = rest[i:]
		out = sy.appendSegment(ns, ref, out)
	}
	ns.front = append(out, rest...)
}

// applyComm materializes a communication successor.
func (sy *Synthesizer) applyComm(s *state, cc commCand) *state {
	ns := sy.clone(s)
	ns.tail = sy.record(s.tail, step{cc: cc})
	ns.setCommunicated(cc.ref)
	ns.addProp(cc.result())
	// Close the open stage (Sec. 3.2): its comm + worst comp are paid.
	worst := 0.0
	for _, v := range ns.openComp {
		if v > worst {
			worst = v
		}
	}
	ns.closedCost += ns.openComm + worst
	k := int(cc.coll)
	if sy.commPen == nil {
		clear(ns.openComp)
	} else {
		m := len(ns.openComp)
		copy(ns.openComp, sy.commPen[cc.ref][k*m:(k+1)*m])
	}
	ns.openComm = sy.commT[cc.ref][k]
	ns.lastComp = -1
	if sy.opt.BeamWidth > 0 {
		// A communicated tensor has no segment, and nothing else moved.
		sy.touched = append(sy.touched[:0], cc.ref)
		sy.inheritFront(ns, s, sy.touched)
	}
	// A frontier entry's tensor is no acceptable output (appendSegment).
	sy.settle(ns, cc.ref)
	ns.complete = ns.unmet == 0
	return ns
}

// pruneDead drops properties of tensors whose consumers are all computed
// (optimization 3), keeping required outputs.
func (sy *Synthesizer) pruneDead(s *state, justComputed graph.NodeID) {
	check := func(u graph.NodeID) {
		if !sy.dead(s, u, justComputed) {
			return
		}
		w := s.props[:0]
		for _, p := range s.props {
			if p.Ref != u {
				w = append(w, p)
			} else {
				s.h ^= propCode(p)
			}
		}
		s.props = w
	}
	for _, u := range sy.g.Node(justComputed).Inputs {
		if !sy.g.Node(u).Kind.IsLeaf() {
			check(u)
		}
	}
	// The freshly computed node may itself have no pending consumers left
	// only in degenerate graphs; checking costs little.
	check(justComputed)
}

// dead reports whether u's properties are dropped once node is computed on
// top of s: u is no required output and every required consumer of u is
// computed in s or is node.
func (sy *Synthesizer) dead(s *state, u, node graph.NodeID) bool {
	if sy.outputIdx[u] >= 0 {
		return false
	}
	for _, c := range sy.th.Consumers[u] {
		if sy.th.Required[c] && c != node && !bitGet(s.computed, c) {
			return false
		}
	}
	return true
}

func (sy *Synthesizer) outputAcceptable(s *state, o theory.Output) bool {
	dim := -1
	if o.Param >= 0 {
		switch pd := s.placed[o.Param]; pd {
		case unplaced:
			return false
		case replicated:
			dim = -1
		default:
			dim = int(pd)
		}
	}
	for _, p := range s.propsOf(o.Ref) {
		if o.Acceptable(p, dim) {
			return true
		}
	}
	return false
}
