// The per-search state arena (DESIGN.md): beam states and their slice
// backing come from slabs owned by the Synthesizer, not the global heap.
//
// The previous sync.Pool recycled retired states well, but every pool miss —
// ~40% of clones on model-scale searches, since a level's survivors outlive
// the level that allocated them — paid five separate allocations (the state
// plus four slice backings). The arena batch-allocates states in blocks and
// carves each state's fixed-size backing (placed, openComp) and initial
// capacity (props, instrs) out of per-block slabs: a miss is one slab index,
// a hit is a free-list pop. Everything is released wholesale when the search
// ends and the Synthesizer becomes garbage — no per-object bookkeeping, and
// nothing escapes: Run copies the winning program out of the parent chain
// before returning.
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
	// arenaPropCap and arenaInstrCap are the initial per-state capacities
	// carved from the slabs. A state whose props or instrs outgrow them
	// falls back to an ordinary append reallocation and keeps the larger
	// backing across its recycled lives — the arena self-tunes to the graph.
	arenaPropCap  = 12
	arenaInstrCap = 4
)

// stateArena allocates and recycles search states for one Synthesizer.
type stateArena struct {
	free []*state

	block  []state
	used   int
	placed []int8
	comp   []float64
	props  []theory.Property
	instrs []dist.Instruction

	nodes, m int
}

func (a *stateArena) init(nodes, m int) {
	a.nodes, a.m = nodes, m
}

// get returns a recycled state, or carves a fresh one from the current
// block. Fresh states come with zero-length slices whose capacities alias
// the block slabs, so the caller's append-into pattern fills them in place.
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
		a.props = make([]theory.Property, arenaBlock*arenaPropCap)
		a.instrs = make([]dist.Instruction, arenaBlock*arenaInstrCap)
		a.used = 0
	}
	i := a.used
	s := &a.block[i]
	s.placed = a.placed[i*a.nodes : i*a.nodes : (i+1)*a.nodes]
	s.openComp = a.comp[i*a.m : i*a.m : (i+1)*a.m]
	s.props = a.props[i*arenaPropCap : i*arenaPropCap : (i+1)*arenaPropCap]
	s.instrs = a.instrs[i*arenaInstrCap : i*arenaInstrCap : (i+1)*arenaInstrCap]
	a.used++
	return s
}

// put recycles a retired state for the next get.
func (a *stateArena) put(s *state) {
	a.free = append(a.free, s)
}
