// The per-search arena (DESIGN.md): beam states and their slice backing
// come from slabs owned by the search's working memory, not the global heap.
//
// The previous sync.Pool of states recycled retired states well, but every
// pool miss — ~40% of clones on model-scale searches, since a level's
// survivors outlive the level that allocated them — paid five separate
// allocations (the state plus four slice backings). The arena batch-allocates
// states in blocks and carves each state's fixed-size backing (placed,
// openComp, both bitsets) and initial props capacity out of per-block slabs:
// a miss is one slab index, a hit is a free-list pop.
//
// Every state owns all of its backing — clone copies, it never shares — and
// no state outlives its level as an ancestor: a step's program is a trail
// record (runScratch.trail), so every state of a retiring level returns
// here whole, backing included, and the next level's successors reuse it.
// A search therefore carves about two levels' worth of states, however deep
// it runs, and props backing that has already grown to the graph is reused.
//
// Communication frontiers (state.front) are not per-state backing: a state
// needs one only while it sits in the beam, so their buffers are a second
// free list, handed back when a level retires and carved from slabs sized by
// the beam width — at most one level and its successors hold one at a time.
//
// The arena, the trail and the beam's buffers are one runScratch, borrowed
// per Run rather than owned by a Synthesizer. Nothing of a search escapes
// Run — it rebuilds the winning program from the trail before returning —
// so Run takes a scratch from scratchPool, rewinds it (every state it ever
// carved goes back to the free list with its backing) and puts it back once
// the program is built: every search after a process's first reuses what
// an earlier one carved, the Q↔B loop's re-runs and the next Plan call
// alike. The collector frees the pool's idle scratches once
// scratchIdleCycles collections pass without a search starting or ending,
// so a process that stops planning gets back the idle heap it had before
// the pool. A sync.Pool was the first home and was dropped: a goroutine does
// not see another P's private slot, and a scratch idle through two
// collections is freed, so whether a search missed depended on the
// scheduler and on where collections fell — a third of plan_cold's borrows
// missed, and its allocs_per_call spread 65 between identical runs
// against a 2 % bound of 22. Two homes that never free were measured and
// rejected: both keep scratch alive whatever the process does, which
// raises the live heap, speeds the benchmark's allocation-heavy speed probe
// and so inflates every time normalized by it. A Planner-owned pool made
// plan_cold's probe 13–27 % faster and its normalized call_ms read
// +14/+18 % (setup_s up to +66 %) while the as-measured call_ms fell
// 13–17 %; a four-slot process-wide free list made serve_warm's probe
// 8–23 % faster and its call_ms read +31 % in one pair.
//
// The reshape rule: a scratch fits a search when its state slabs are at
// least as long as the graph's nodes, the cluster's devices and the
// bitsets' words. One carved for a smaller search drops its state slabs
// (reshape) and carves new ones at the running maximum of the three; a
// recycled state is never grown one slice at a time (growing them by
// append read plan_balance's allocs_per_call 758 against 698). Everything
// shape-free — frontier buffers, the trail's chunks, the candidate and
// level buffers, the dedup set — is always kept. A returned scratch holds
// no pointer into the finished search: its used trail records and
// candidate triples are zeroed (giveBack), so the pool never pins a
// finished search's theory or graph.
//
// get/put are unlocked: a search, A*, the seed fast-forward and every beam
// phase alike, runs on the one goroutine that called Run, and a borrowed
// scratch belongs to that one search.

package synth

import (
	"runtime"
	"runtime/metrics"
	"sync"

	"hap/internal/graph"
	"hap/internal/theory"
)

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

// runScratch is one search's working memory: everything Run writes besides
// the Synthesizer's per-input tables. A Synthesizer holds one only while it
// runs (borrow, giveBack).
type runScratch struct {
	// arena allocates and recycles beam states (and their slice backing);
	// a level's states return whole when it retires (retire), and every
	// state it carved returns when the next search reshapes it.
	arena stateArena
	// trail holds one record per step taken this search (record), in
	// chunks of trailChunk: every state's program, rebuilt on demand by
	// program. It only grows within a search, 32 bytes a step, so no state
	// needs to outlive its level as an ancestor; dropTrail zeroes the used
	// records and re-slices it for the next search.
	trail [][]trailRec
	// beam is runBeam's per-level scratch.
	beam beamScratch
	// merge is the beam's per-level lazy sort (its range stack lives here so
	// a search allocates it once, with the scratch).
	merge lazySort
	// Serial scratch: exact A*'s successors and per-tensor segments, and
	// inheritFront's touched set.
	expandBuf []*state
	segBuf    []frontEntry
	touched   []graph.NodeID
}

// scratchPool holds the working memory of finished searches for the next
// one, process-wide: the idle scratches, last returned on top, behind a
// mutex. A search takes one (borrow) whichever goroutine or P it runs on,
// so a process that searches one at a time carves one scratch and then
// never misses. A borrow that finds none allocates a fresh runScratch,
// which carves what a fresh search always did.
//
// The collector frees the idle scratches once scratchIdleCycles
// collections have passed since the pool's last borrow or return: a
// process that stops searching gets its idle heap back, and one that keeps
// searching keeps its scratch, wherever its collections fall, while fewer
// than that many pass between two searches. The rule reads only the
// collector's cycle count, so a borrow decides it exactly (expire); between
// searches the sentinel's finalizer, run once per collection while a
// scratch is idle (tick), applies it too.
var scratchPool struct {
	sync.Mutex
	idle []*runScratch
	// last is the collector's cycle count at the last borrow or return.
	last uint64
	// ticking reports whether the sentinel is armed; spare holds it while
	// it is not, so re-arming allocates nothing.
	ticking bool
	spare   *gcSentinel
	// cycles is the runtime/metrics sample gcCycles reads into.
	cycles [1]metrics.Sample
}

// scratchIdleCycles is how many collections may pass without a borrow or a
// return before the pool frees its idle scratches. The benchmark's call
// paths see at most three between two searches; its serve_warm workload,
// whose timed section runs none, sees about 170.
const scratchIdleCycles = 8

// gcSentinel is the unreachable object whose finalizer, tick, the
// collector runs once per cycle while the pool holds an idle scratch. It
// holds a pointer so that it is never a tiny allocation, whose finalizer
// may never run.
type gcSentinel struct{ _ *gcSentinel }

// gcCycles returns the number of completed collections. The caller holds
// scratchPool's lock.
func gcCycles() uint64 {
	s := &scratchPool.cycles[0]
	s.Name = "/gc/cycles/total:gc-cycles"
	metrics.Read(scratchPool.cycles[:])
	return s.Value.Uint64()
}

// expire frees the idle scratches if scratchIdleCycles collections have
// passed since the last borrow or return, and returns the cycle count. The
// caller holds scratchPool's lock.
func expire() uint64 {
	p := &scratchPool
	now := gcCycles()
	if now-p.last >= scratchIdleCycles {
		clear(p.idle)
		p.idle = p.idle[:0]
	}
	return now
}

// tick is the sentinel's finalizer: it applies expire after a collection
// and re-arms itself while a scratch is still idle.
func tick(s *gcSentinel) {
	p := &scratchPool
	p.Lock()
	defer p.Unlock()
	expire()
	if len(p.idle) > 0 {
		runtime.SetFinalizer(s, tick)
		return
	}
	p.ticking, p.spare = false, s
}

// borrow gives sy a scratch shaped for its search: the last returned one
// whose state slabs already fit it, or else the last returned one. Where
// concurrent searches (MoE's two arms) left two scratches, the one that
// served the larger graphs thus keeps serving them, whichever arm returned
// last; a scratch that has only served a smaller graph never re-carves its
// slabs for a larger one while one that fits is idle.
func (sy *Synthesizer) borrow() {
	p := &scratchPool
	nodes, m := sy.g.NumNodes(), sy.c.M()
	var rs *runScratch
	p.Lock()
	p.last = expire()
	if n := len(p.idle); n > 0 {
		i := n - 1
		for j := i; j >= 0; j-- {
			if p.idle[j].arena.fits(nodes, m, sy.words) {
				i = j
				break
			}
		}
		rs = p.idle[i]
		copy(p.idle[i:], p.idle[i+1:])
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
	}
	p.Unlock()
	if rs == nil {
		rs = new(runScratch)
	}
	rs.arena.reshape(nodes, m, sy.words, sy.opt.BeamWidth)
	sy.runScratch = rs
}

// giveBack returns sy's scratch to the pool, holding no pointer into the
// search that used it: the trail's records and the last levels' candidate
// triples point into the search's theory.
func (sy *Synthesizer) giveBack() {
	rs := sy.runScratch
	sy.runScratch = nil
	rs.dropTrail()
	lc := &rs.beam.lc
	clear(lc.comps[:cap(lc.comps)])
	p := &scratchPool
	p.Lock()
	p.last = expire()
	p.idle = append(p.idle, rs)
	if !p.ticking {
		s := p.spare
		if s == nil {
			s = new(gcSentinel)
		}
		p.ticking, p.spare = true, nil
		runtime.SetFinalizer(s, tick)
	}
	p.Unlock()
}

// dropTrail zeroes the trail's used records and empties it. Records past
// the trail's end are therefore always zero: a chunk re-sliced by record
// holds nothing of an earlier search.
func (rs *runScratch) dropTrail() {
	for _, c := range rs.trail {
		clear(c)
	}
	rs.trail = rs.trail[:0]
}

// stateArena allocates and recycles search states for one search at a time.
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

// reshape readies the arena for a search of nodes nodes, m devices, words
// bitset words and beam width width: every state it carved goes back to the
// free list (rewind). When a slab dimension is too short for the search, the
// states and their slabs are dropped instead, and the next carve is at the
// running maximum of each dimension; frontier buffers, which are
// shape-free, are kept either way.
func (a *stateArena) reshape(nodes, m, words, width int) {
	a.width = width
	a.rewind()
	if a.fits(nodes, m, words) {
		return
	}
	clear(a.free)
	a.free, a.blocks, a.block = a.free[:0], nil, nil
	a.bits, a.placed, a.comp, a.props = nil, nil, nil, nil
	a.nodes, a.m, a.words = max(a.nodes, nodes), max(a.m, m), max(a.words, words)
}

// fits reports whether the arena's state slabs are long enough for a search
// of nodes nodes, m devices and words bitset words.
func (a *stateArena) fits(nodes, m, words int) bool {
	return nodes <= a.nodes && m <= a.m && words <= a.words
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
