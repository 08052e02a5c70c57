// The per-search state arena (DESIGN.md): beam states and their slice
// backing come from slabs owned by the Synthesizer, not the global heap.
//
// The previous sync.Pool recycled retired states well, but every pool miss —
// ~40% of clones on model-scale searches, since a level's survivors outlive
// the level that allocated them — paid five separate allocations (the state
// plus four slice backings). The arena batch-allocates states in blocks and
// carves each state's fixed-size backing (placed, openComp, both bitsets)
// and initial props capacity out of per-block slabs: a miss is one slab
// index, a hit is a free-list pop. Nothing escapes a search — Run rebuilds
// the winning program from the trail before returning — so the slabs live
// as long as the Synthesizer: the next Run rewinds the arena (rewind),
// handing every state it ever carved back to the free list with its
// backing, so a Synthesizer that serves a whole Q↔B loop reuses what its
// first search carved.
//
// Every state owns all of its backing — clone copies, it never shares — and
// no state outlives its level as an ancestor: a step's program is a trail
// record (Synthesizer.trail), so every state of a retiring level returns
// here whole, backing included, and the next level's successors reuse it.
// A search therefore carves about two levels' worth of states, however deep
// it runs, and props backing that has already grown to the graph is reused.
//
// Communication frontiers (state.front) are not per-state backing: a state
// needs one only while it sits in the beam, so their buffers are a second
// free list, handed back when a level retires and carved from slabs sized by
// the beam width — at most one level and its successors hold one at a time.
//
// get/put are unlocked: a search, A*, the seed fast-forward and every beam
// phase alike, runs on the one goroutine that called Run.

package synth

import "hap/internal/theory"

const (
	// arenaBlock is the number of states (and of backings) allocated per
	// slab.
	arenaBlock = 256
	// arenaPropCap and arenaFrontCap are the initial capacities carved from
	// the slabs. A state whose props (or a frontier buffer whose entries)
	// outgrow them falls back to an ordinary append reallocation and keeps
	// the larger backing across its recycled lives — the arena self-tunes to
	// the graph.
	arenaPropCap  = 12
	arenaFrontCap = 64
	// arenaFrontSlack is how many frontier buffers a slab holds beyond the
	// beam width: a level's states plus the candidates materialized and
	// discarded while its successors fill.
	arenaFrontSlack = 8
)

// stateArena allocates and recycles search states for one Synthesizer.
type stateArena struct {
	free []*state

	// blocks are the state blocks allocated so far; the last one's uncarved
	// rest is block.
	blocks [][]state
	// The current slabs' uncarved rest: state structs and their backings.
	block  []state
	bits   []uint64
	placed []int8
	comp   []float64
	props  []theory.Property

	freeFronts [][]frontEntry
	fronts     []frontEntry // the current frontier slab's uncarved rest

	nodes, m, words, width int
}

func (a *stateArena) init(nodes, m, words, width int) {
	a.nodes, a.m, a.words, a.width = nodes, m, words, width
}

// get returns a recycled state, or carves a fresh one from the current
// block. Fresh states come with zero-length slices whose capacities alias
// the slabs, so the caller's append-into pattern fills them in place.
func (a *stateArena) get() *state {
	if n := len(a.free); n > 0 {
		s := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		return s
	}
	if len(a.block) == 0 {
		a.block = make([]state, arenaBlock)
		a.blocks = append(a.blocks, a.block)
		a.placed = make([]int8, arenaBlock*a.nodes)
		a.comp = make([]float64, arenaBlock*a.m)
		a.props = make([]theory.Property, arenaBlock*arenaPropCap)
		a.bits = make([]uint64, arenaBlock*2*a.words)
	}
	s := &a.block[0]
	a.block = a.block[1:]
	s.placed, a.placed = a.placed[:0:a.nodes], a.placed[a.nodes:]
	s.openComp, a.comp = a.comp[:0:a.m], a.comp[a.m:]
	s.props, a.props = a.props[:0:arenaPropCap], a.props[arenaPropCap:]
	s.computed, a.bits = a.bits[:0:a.words], a.bits[a.words:]
	s.communicated, a.bits = a.bits[:0:a.words], a.bits[a.words:]
	return s
}

// rewind makes every state the arena has carved free again, for the next
// search: no state outlives the Run that used it. Each keeps its backing,
// and its frontier buffer goes back to the frontier free list.
func (a *stateArena) rewind() {
	a.free = a.free[:0]
	for i, blk := range a.blocks {
		if i == len(a.blocks)-1 {
			blk = blk[:len(blk)-len(a.block)]
		}
		for j := range blk {
			s := &blk[j]
			a.putFront(s.front)
			s.front = nil
			a.free = append(a.free, s)
		}
	}
}

// put recycles a state no live state reads for the next get.
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
