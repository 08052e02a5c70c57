// The program checker: the one definition of a correct distributed program,
// which the planner runs on every plan it returns and a seeded search reads
// its donor through.

package theory

import (
	"fmt"
	"math"

	"hap/internal/collective"
	"hap/internal/dist"
	"hap/internal/graph"
)

// readingBudget bounds the readings Check tries, whatever the program's
// length. Paper plans branch at most three times and take a wrong branch
// at most once.
const readingBudget = 64

const noSlot = math.MaxUint8 // an empty layout slot of a tensorState

// tensorState flags.
const (
	computed uint8 = 1 << iota
	communicated
	isOutput
	resRead // a required computation read the layout its collective made
)

// tensorState is one tensor in Check's replay, four bytes. A tensor is
// computed once and communicated at most once (opt 2), so it holds at most
// two properties, as Property.Slot numbers: the one its computation made
// (out) and the one its collective made (res). A leaf has a placement.
type tensorState struct {
	out, res uint8
	placed   int8
	flags    uint8
}

// holds reports whether the tensor holds p (p.Ref's property).
func (t *tensorState) holds(p Property) bool {
	s := p.Slot()
	return s >= 0 && (uint8(s) == t.out || uint8(s) == t.res)
}

// slotProperty is the property of tensor ref that slot s numbers.
func slotProperty(ref graph.NodeID, s uint8) Property {
	switch s {
	case 0:
		return Id(ref)
	case 1:
		return Pending(ref)
	}
	return Shard(ref, int(s)-2)
}

// branch is an ambiguous computation of the reading being tried: it reads
// the pick-th of its n matching triples.
type branch struct{ pick, n int32 }

// failure is where (len(instrs) for output ref) and why a reading failed.
type failure struct {
	at  int
	ref graph.NodeID
	why string
}

// Checker is Check on one slab of tensor states, allocated by NewChecker
// and reused by every program it checks against its theory: the planner
// makes one per Optimize, for each iteration's liveness walk and the final
// verify phase. It serves one goroutine at a time; a copy shares the slab.
type Checker struct {
	th      *Theory
	ts      []tensorState
	reading []*Triple
	stale   int
}

// NewChecker returns a checker of programs over th.
func NewChecker(th *Theory) Checker {
	return Checker{th: th, ts: make([]tensorState, len(th.Required))}
}

// Check returns nil when prog, whose instructions refer to th.Graph's
// nodes, is correct (Sec. 4). It replays the program on a mirror of the
// search state — the same property accumulation, leaf placements and
// liveness pruning, for a superset of the search's properties would accept
// readings no search makes — and requires that every collective move a
// property its tensor holds to a new one, on dimensions the tensor has,
// once per tensor; that every leaf be loaded once, before any computation
// reads it; that every computation have its node's op and lower a triple
// whose preconditions hold, with the instruction's flop scaling and shard
// dimension, once per node; and that every output end acceptable under its
// parameter's placement (Output.Settles).
//
// Distinct triples can lower to identical instruction bytes; readings are
// tried depth first in triple order, and the first correct one is the
// program's. A non-nil reading (a slot per graph node) receives the triple
// each computation lowers. staleReads counts the computations of that
// reading that read a layout a collective on its tensor had replaced: the
// numeric runtime, one buffer per tensor, no longer holds it. They are
// counted, not rejected.
func Check(th *Theory, prog *dist.Program, reading []*Triple) (staleReads int, err error) {
	c := NewChecker(th)
	return c.Check(prog, reading)
}

// Check is the package's Check on c's slab.
func (c *Checker) Check(prog *dist.Program, reading []*Triple) (staleReads int, err error) {
	th := c.th
	c.reading = reading
	// A failed reading walks the program again with the picks so far: the
	// depth-first order, with no copy of the state per branch.
	var buf [8]branch
	path := buf[:0]
	far := failure{at: -1}
	for tried := 1; ; tried++ {
		var f failure
		if path, f = c.walk(prog.Instrs, path); f.why == "" {
			return c.stale, nil
		}
		if f.at > far.at {
			far = f
		}
		for len(path) > 0 && path[len(path)-1].pick+1 == path[len(path)-1].n {
			path = path[:len(path)-1]
		}
		switch {
		case len(path) == 0 && far.at == len(prog.Instrs):
			return 0, fmt.Errorf("theory: output e%d %s", far.ref, far.why)
		case len(path) == 0:
			return 0, fmt.Errorf("theory: instruction %d (%s): %s", far.at, prog.Instrs[far.at].Text(th.Graph), far.why)
		case tried == readingBudget:
			return 0, fmt.Errorf("theory: no correct reading of the program in %d tries", readingBudget)
		}
		path[len(path)-1].pick++
	}
}

// walk replays instrs once, reading the j-th ambiguous computation as
// path[j] picks, or by its first match past path's end, where it appends
// the branch.
func (c *Checker) walk(instrs []dist.Instruction, path []branch) ([]branch, failure) {
	g := c.th.Graph
	for i := range c.ts {
		c.ts[i] = tensorState{out: noSlot, res: noSlot, placed: Unplaced}
	}
	for _, o := range c.th.Outputs {
		c.ts[o.Ref].flags = isOutput
	}
	c.stale = 0
	j := 0
	for i := range instrs {
		in := &instrs[i]
		if in.Ref < 0 || int(in.Ref) >= len(c.ts) {
			return path, failure{at: i, why: "refers to no node of the graph"}
		}
		t, n := &c.ts[in.Ref], g.Node(in.Ref)
		switch {
		case in.IsComm:
			src, res, ok := transition(in, len(n.Shape))
			if !ok || t.flags&communicated != 0 || !t.holds(src) || t.holds(res) {
				return path, failure{at: i, why: "moves no property its tensor holds to a new one"}
			}
			t.flags |= communicated
			t.res = uint8(res.Slot())
		case in.Op != n.Kind:
			return path, failure{at: i, why: "op differs from its node's"}
		case n.Kind.IsLeaf():
			if t.placed != Unplaced || in.ShardDim < -1 || in.ShardDim >= len(n.Shape) {
				return path, failure{at: i, why: "loads a leaf twice or on a dimension it does not have"}
			}
			t.placed = int8(in.ShardDim)
		case t.flags&computed != 0:
			return path, failure{at: i, why: "computes its node twice"}
		default:
			// The pick applies only if this computation is ambiguous.
			pick, matches := int32(0), int32(0)
			if j < len(path) {
				pick = path[j].pick
			}
			var first, picked *Triple
			for _, cand := range c.th.ByNode[in.Ref] {
				ci := cand.Instr(g)
				if ci.FlopsScaled != in.FlopsScaled || ci.ShardDim != in.ShardDim || !c.applicable(cand) {
					continue
				}
				if matches == 0 {
					first = cand
				}
				if matches == pick {
					picked = cand
				}
				matches++
			}
			switch {
			case matches == 0:
				return path, failure{at: i, why: "lowers no triple whose preconditions hold"}
			case matches == 1:
				c.apply(first)
				continue
			case j == len(path):
				path = append(path, branch{n: matches})
			}
			j++
			c.apply(picked)
		}
	}
	for _, o := range c.th.Outputs {
		t := &c.ts[o.Ref]
		var props [2]Property
		n := 0
		for _, s := range [2]uint8{t.out, t.res} {
			if s != noSlot {
				props[n] = slotProperty(o.Ref, s)
				n++
			}
		}
		placed := Replicated
		if o.Param >= 0 {
			placed = c.ts[o.Param].placed
		}
		if !o.Settles(placed, props[:n]) {
			return path, failure{at: len(instrs), ref: o.Ref, why: "ends in no form acceptable under its parameter's placement"}
		}
	}
	return path, failure{}
}

// transition returns the property a collective consumes and the one it
// makes (the inverse of the synthesizer's commCandidates), or false on a
// dimension its tensor of rank rank does not have. A validated graph's
// ranks are at most graph.MaxRank, so a Property names every dimension.
func transition(in *dist.Instruction, rank int) (src, res Property, ok bool) {
	dim := func(d int) bool { return d >= 0 && d < rank }
	switch in.Coll {
	case collective.AllReduce:
		return Pending(in.Ref), Id(in.Ref), true
	case collective.ReduceScatter:
		return Pending(in.Ref), Shard(in.Ref, in.Dim), dim(in.Dim)
	case collective.PaddedAllGather, collective.GroupedBroadcast:
		return Shard(in.Ref, in.Dim), Id(in.Ref), dim(in.Dim)
	case collective.AllToAll:
		return Shard(in.Ref, in.Dim), Shard(in.Ref, in.Dim2), dim(in.Dim) && dim(in.Dim2)
	}
	return Property{}, Property{}, false
}

// applicable mirrors the synthesizer's compApplicable, except that leaves
// must already be placed: a program's loaders precede their consumers.
func (c *Checker) applicable(tr *Triple) bool {
	for _, p := range tr.Pre() {
		if !c.ts[p.Ref].holds(p) {
			return false
		}
	}
	for _, p := range tr.LeafPre() {
		if c.ts[p.Ref].placed != p.Placement() {
			return false
		}
	}
	return true
}

// apply computes tr's node: it counts tr's stale reads, marks the
// collective layouts a required node reads, records tr, and prunes as the
// synthesizer's pruneDead does.
func (c *Checker) apply(tr *Triple) {
	id := tr.Node
	for _, p := range tr.Pre() {
		t := &c.ts[p.Ref]
		switch {
		case t.flags&communicated == 0:
		case t.res != uint8(p.Slot()):
			c.stale++
		case c.th.Required[id]:
			t.flags |= resRead
		}
	}
	c.ts[id].flags |= computed
	c.ts[id].out = uint8(tr.Out.Slot())
	if c.reading != nil {
		c.reading[id] = tr
	}
	for _, u := range c.th.Graph.Node(id).Inputs {
		if !c.th.Graph.Node(u).Kind.IsLeaf() {
			c.prune(u)
		}
	}
	c.prune(id)
}

// prune drops u's properties when u is no output and every required
// consumer of u is computed.
func (c *Checker) prune(u graph.NodeID) {
	if c.ts[u].flags&isOutput != 0 {
		return
	}
	for _, v := range c.th.Consumers[u] {
		if c.th.Required[v] && c.ts[v].flags&computed == 0 {
			return
		}
	}
	c.ts[u].out, c.ts[u].res = noSlot, noSlot
}

// Live drops prog's dead instructions in place and returns how many went,
// or Check's error, dropping nothing, when prog fails it. An instruction is
// dead when no output needs its node: a computation or leaf loader that no
// output's ancestry reaches, or a collective on such a tensor. A collective
// is dead too when no computation of a required node reads the layout it
// makes, in the reading Check finds, and its tensor, when an output, settles
// without it (Output.Settles). A collective moves its tensor's layout; a
// layout nothing reads is paid for and unused. What stays is correct: the
// reading Check found still holds for it. A graph with no outputs anchors
// no liveness: nothing is dropped.
func (c *Checker) Live(prog *dist.Program) (dropped int, err error) {
	if _, err := c.Check(prog, nil); err != nil {
		return 0, err
	}
	if len(c.th.Outputs) == 0 {
		return 0, nil
	}
	for _, o := range c.th.Outputs {
		t := &c.ts[o.Ref]
		if t.flags&(communicated|resRead) != communicated {
			continue
		}
		placed := Replicated
		if o.Param >= 0 {
			placed = c.ts[o.Param].placed
		}
		if out := [1]Property{slotProperty(o.Ref, t.out)}; !o.Settles(placed, out[:]) {
			t.flags |= resRead
		}
	}
	kept := prog.Instrs[:0]
	for _, in := range prog.Instrs {
		if c.th.Required[in.Ref] && (!in.IsComm || c.ts[in.Ref].flags&resRead != 0) {
			kept = append(kept, in)
		}
	}
	dropped = len(prog.Instrs) - len(kept)
	prog.Instrs = kept
	return dropped, nil
}
