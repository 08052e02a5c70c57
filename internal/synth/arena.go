// The per-search state arena (DESIGN.md): beam states and their slice
// backing come from slabs owned by the Synthesizer, not the global heap.
//
// The previous sync.Pool recycled retired states well, but every pool miss —
// ~40% of clones on model-scale searches, since a level's survivors outlive
// the level that allocated them — paid five separate allocations (the state
// plus four slice backings). The arena batch-allocates states in blocks and
// carves each state's fixed-size backing (placed, openComp, one bitset) and
// initial capacity (props, instrs) out of per-block slabs: a miss is one slab
// index, a hit is a free-list pop. Everything is released wholesale when the
// search ends and the Synthesizer becomes garbage — no per-object
// bookkeeping, and nothing escapes: Run copies the winning program out of the
// parent chain before returning.
//
// Communication frontiers (state.front) are not per-state backing: a state
// needs one only while it sits in the beam, so their buffers are a second
// free list, handed back when a level retires and carved from slabs sized by
// the beam width — at most one level and its successors hold one at a time.
//
// get/put are unlocked: only the goroutine running the search calls them.
// The beam's phase-1 workers score candidates without materializing them;
// clone (A*, the seed fast-forward, the beam's serial materialize loop) and
// release all run on the search's own goroutine.

package synth

import (
	"hap/internal/dist"
	"hap/internal/theory"
)

const (
	// arenaBlock is the number of states allocated per slab.
	arenaBlock = 256
	// arenaPropCap, arenaInstrCap and arenaFrontCap are the initial
	// capacities carved from the slabs. A state whose props or instrs (or a
	// frontier buffer whose entries) outgrow them falls back to an ordinary
	// append reallocation and keeps the larger backing across its recycled
	// lives — the arena self-tunes to the graph.
	arenaPropCap  = 12
	arenaInstrCap = 4
	arenaFrontCap = 64
	// arenaFrontSlack is how many frontier buffers a slab holds beyond the
	// beam width: a level's states plus the candidates materialized and
	// discarded while its successors fill.
	arenaFrontSlack = 8
)

// stateArena allocates and recycles search states for one Synthesizer.
type stateArena struct {
	free []*state

	block  []state
	used   int
	placed []int8
	comp   []float64
	bits   []uint64
	props  []theory.Property
	instrs []dist.Instruction

	freeFronts [][]frontEntry
	fronts     []frontEntry // the current frontier slab's uncarved rest

	nodes, m, words, width int
}

func (a *stateArena) init(nodes, m, words, width int) {
	a.nodes, a.m, a.words, a.width = nodes, m, words, width
}

// get returns a recycled state, or carves a fresh one from the current
// block. Fresh states come with zero-length slices whose capacities alias
// the block slabs, so the caller's append-into pattern fills them in place,
// and with one spare bitset: every expansion copies-on-write exactly one of
// its two sets, so a fresh state's cowCopy never reaches the heap.
func (a *stateArena) get() *state {
	if n := len(a.free); n > 0 {
		s := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		return s
	}
	if a.used == len(a.block) {
		a.block = make([]state, arenaBlock)
		a.placed = make([]int8, arenaBlock*a.nodes)
		a.comp = make([]float64, arenaBlock*a.m)
		a.bits = make([]uint64, arenaBlock*a.words)
		a.props = make([]theory.Property, arenaBlock*arenaPropCap)
		a.instrs = make([]dist.Instruction, arenaBlock*arenaInstrCap)
		a.used = 0
	}
	i := a.used
	s := &a.block[i]
	s.placed = a.placed[i*a.nodes : i*a.nodes : (i+1)*a.nodes]
	s.openComp = a.comp[i*a.m : i*a.m : (i+1)*a.m]
	s.spare[0] = a.bits[i*a.words : (i+1)*a.words : (i+1)*a.words]
	s.props = a.props[i*arenaPropCap : i*arenaPropCap : (i+1)*arenaPropCap]
	s.instrs = a.instrs[i*arenaInstrCap : i*arenaInstrCap : (i+1)*arenaInstrCap]
	a.used++
	return s
}

// put recycles a retired state for the next get.
func (a *stateArena) put(s *state) {
	a.free = append(a.free, s)
}

// getFront returns an empty frontier buffer: a recycled one, or the next
// arenaFrontCap entries of a slab of width+arenaFrontSlack buffers.
func (a *stateArena) getFront() []frontEntry {
	if n := len(a.freeFronts); n > 0 {
		f := a.freeFronts[n-1]
		a.freeFronts[n-1] = nil
		a.freeFronts = a.freeFronts[:n-1]
		return f
	}
	if len(a.fronts) < arenaFrontCap {
		a.fronts = make([]frontEntry, (a.width+arenaFrontSlack)*arenaFrontCap)
	}
	f := a.fronts[:0:arenaFrontCap]
	a.fronts = a.fronts[arenaFrontCap:]
	return f
}

// putFront recycles a frontier buffer no live state reads any more.
func (a *stateArena) putFront(f []frontEntry) {
	if cap(f) > 0 {
		a.freeFronts = append(a.freeFronts, f[:0])
	}
}
