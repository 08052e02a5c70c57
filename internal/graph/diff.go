// Structural graph diffing for incremental synthesis: align two graphs by
// content-defined segments of position-independent node signatures, report
// the changed subgraph and a normalized edit size, and map node ids between
// the aligned regions so a cached plan's decisions can be transplanted onto
// a near-miss graph.
//
// The alignment deliberately works on *signatures*, not node ids: a
// signature hashes everything the synthesizer sees about a node (kind,
// shape, numeric attributes, and its inputs as relative offsets) but nothing
// positional, so inserting or widening one layer perturbs only the
// signatures of the touched nodes and their immediate consumers — the rest
// of the sequence still matches and maps id-to-id.

package graph

import (
	"slices"

	"hap/internal/fingerprint"
)

// Chunking parameters for the content-defined segmentation of the signature
// sequence (rsync-style: a boundary falls after any node whose signature is
// ≡ 0 mod chunkModulus, clamped to [chunkMin, chunkMax] nodes). Expected
// chunk length ≈ chunkModulus, so a one-node edit dirties one or two chunks
// and every other chunk hash — and therefore the similarity index and the
// diff alignment — is untouched.
const (
	chunkModulus = 4
	chunkMin     = 2
	chunkMax     = 16
)

// NodeSignature returns a position-independent structural hash of one node:
// its kind, shape, numeric attributes, input arity with relative input
// offsets (id − input), and its loss/parameter/gradient role. Two nodes with
// equal signatures admit the same synthesis decisions when their (relative)
// neighborhoods match. Node ids, names, and the segment assignment do not
// participate — ids shift under insertion and segments are a planning
// overlay, not structure.
func NodeSignature(g *Graph, id NodeID) uint64 {
	gradOf := 0
	for p, gn := range g.Grads {
		if gn == id {
			gradOf = minGradOffset(gradOf, int(id)-int(p))
		}
	}
	return signature(g, id, slices.Contains(g.Params, id), gradOf)
}

// Signatures returns the per-node signature sequence of g: NodeSignature of
// every node, with the parameter and gradient roles tabulated once instead
// of rescanning g.Params and g.Grads per node. The roles are tabulated in
// the result itself (bit 0 = parameter, the rest the gradient offset) and
// each entry is then overwritten by its signature, so the result is the
// only allocation.
func Signatures(g *Graph) []uint64 {
	n := g.NumNodes()
	sigs := make([]uint64, n)
	for _, p := range g.Params {
		if p >= 0 && int(p) < n {
			sigs[p] |= 1
		}
	}
	for p, gn := range g.Grads {
		if gn >= 0 && int(gn) < n {
			off := minGradOffset(int(int64(sigs[gn])>>1), int(gn)-int(p))
			sigs[gn] = uint64(int64(off))<<1 | sigs[gn]&1
		}
	}
	for i, role := range sigs {
		sigs[i] = signature(g, NodeID(i), role&1 != 0, int(int64(role)>>1))
	}
	return sigs
}

// minGradOffset folds one more differentiated parameter, at relative offset
// off, into a gradient node's role: the smallest offset wins, 0 means none
// seen yet.
func minGradOffset(cur, off int) int {
	if cur == 0 || off < cur {
		return off
	}
	return cur
}

// signature hashes one node given its parameter and gradient roles.
func signature(g *Graph, id NodeID, param bool, gradOf int) uint64 {
	n := g.Node(id)
	h := fingerprint.New()
	h.Int(int(n.Kind))
	h.Int(len(n.Inputs))
	for _, u := range n.Inputs {
		h.Int(int(id) - int(u))
	}
	h.Int(len(n.Shape))
	for _, d := range n.Shape {
		h.Int(d)
	}
	h.Float(n.ScaleFactor)
	h.Float(n.FlopsPerSample)
	h.Int(n.BatchDim)
	if g.Loss == id {
		h.Int(1)
	} else {
		h.Int(0)
	}
	if param {
		h.Int(1)
	} else {
		h.Int(0)
	}
	// A gradient node's signature carries which parameter it differentiates,
	// as a relative offset — the output set is part of what a plan must
	// materialize.
	h.Int(gradOf)
	return h.Sum64()
}

// chunk is one content-defined segment of the signature sequence.
type chunk struct {
	start int    // first node id in the chunk
	n     int    // node count
	hash  uint64 // order-sensitive hash of the chunk's signatures
}

// chunkSignatures cuts the signature sequence into content-defined chunks.
func chunkSignatures(sigs []uint64) []chunk {
	n := 0
	for start := 0; start < len(sigs); start = chunkEnd(sigs, start) {
		n++
	}
	out := make([]chunk, 0, n)
	for start := 0; start < len(sigs); {
		end := chunkEnd(sigs, start)
		out = append(out, chunk{start: start, n: end - start, hash: chunkHash(sigs[start:end])})
		start = end
	}
	return out
}

// chunkEnd returns the end of the chunk starting at start: after the first
// node whose signature is ≡ 0 mod chunkModulus once the chunk holds
// chunkMin nodes, after chunkMax nodes, or at the end of the sequence.
func chunkEnd(sigs []uint64, start int) int {
	for i := start; i < len(sigs); i++ {
		if n := i - start + 1; n >= chunkMax || (n >= chunkMin && sigs[i]%chunkModulus == 0) {
			return i + 1
		}
	}
	return len(sigs)
}

// chunkHash is the order-sensitive hash of one chunk's signatures.
func chunkHash(sigs []uint64) uint64 {
	h := fingerprint.New()
	for _, sig := range sigs {
		h.Int(int(uint32(sig)))
		h.Int(int(sig >> 32))
	}
	return h.Sum64()
}

// SubFingerprints returns the stable segment-level sub-hashes of g: one hash
// per content-defined chunk of the node-signature sequence. Unlike
// Fingerprint's single opaque digest, an edit localized to one region changes
// only the covering chunk hashes, so two near-miss graphs share most of
// their sub-fingerprints — the property the serve similarity index and the
// structural diff both build on.
func SubFingerprints(g *Graph) []uint64 {
	chunks := chunkSignatures(Signatures(g))
	out := make([]uint64, len(chunks))
	for i, c := range chunks {
		out[i] = c.hash
	}
	return out
}

// Match is one aligned run: Len nodes starting at AStart in graph A map
// one-to-one onto the Len nodes starting at BStart in graph B.
type Match struct {
	AStart NodeID
	BStart NodeID
	Len    int
}

// Diff is the structural alignment of two graphs. Matches lists the aligned
// runs in ascending order on both sides; everything outside a match is the
// changed subgraph.
type Diff struct {
	Matches []Match
	// EditA and EditB count the unmatched nodes on each side.
	EditA, EditB int
	// Norm is the normalized edit size: max(EditA, EditB) over the larger
	// graph's node count. 0 means structurally identical, 1 means no
	// alignment at all. Two empty graphs diff to 0.
	Norm float64
}

// StructuralDiff aligns graphs a and b. Both signature sequences are cut
// into content-defined chunks and the longest common subsequence of chunk
// hashes (order-preserving, so the alignment respects topological order)
// becomes the matched runs; the runs are then refined to node precision by
// extending them into the gaps wherever raw node signatures still agree,
// and adjacent runs are coalesced.
func StructuralDiff(a, b *Graph) *Diff {
	sa, sb := Signatures(a), Signatures(b)
	ca := chunkSignatures(sa)
	cb := chunkSignatures(sb)
	d := &Diff{}

	// Longest common subsequence over chunk (hash, length) pairs, in one
	// (len(ca)+1) × (len(cb)+1) table. Chunk counts are node count /
	// ~chunkModulus, so the quadratic DP is cheap even for the largest
	// benchmark graphs.
	eq := func(x, y chunk) bool { return x.hash == y.hash && x.n == y.n }
	w := len(cb) + 1
	lcs := make([]int32, (len(ca)+1)*w)
	at := func(i, j int) int32 { return lcs[i*w+j] }
	for i := len(ca) - 1; i >= 0; i-- {
		for j := len(cb) - 1; j >= 0; j-- {
			if eq(ca[i], cb[j]) {
				lcs[i*w+j] = at(i+1, j+1) + int32(ca[i].n)
			} else {
				lcs[i*w+j] = max(at(i+1, j), at(i, j+1))
			}
		}
	}
	// Room for every run plus the prefix and suffix refineMatches may add.
	rough := make([]Match, 0, min(len(ca), len(cb))+2)
	for i, j := 0, 0; i < len(ca) && j < len(cb); {
		switch {
		case eq(ca[i], cb[j]):
			rough = append(rough, Match{AStart: NodeID(ca[i].start), BStart: NodeID(cb[j].start), Len: ca[i].n})
			i++
			j++
		case at(i+1, j) >= at(i, j+1):
			i++
		default:
			j++
		}
	}
	d.Matches = refineMatches(rough, sa, sb)
	matched := 0
	for _, m := range d.Matches {
		matched += m.Len
	}
	d.EditA = a.NumNodes() - matched
	d.EditB = b.NumNodes() - matched
	if size := max(a.NumNodes(), b.NumNodes()); size > 0 {
		d.Norm = float64(max(d.EditA, d.EditB)) / float64(size)
	}
	return d
}

// refineMatches grows the chunk-level matched runs to node precision: each
// run extends into its neighboring gaps while the raw node signatures still
// agree, and unanchored common prefixes/suffixes of the whole sequences are
// recovered. Runs stay strictly increasing and non-overlapping on both
// sides; contiguous same-offset runs are coalesced. The runs are refined in
// place, in ms's backing array.
func refineMatches(ms []Match, sa, sb []uint64) []Match {
	la, lb := NodeID(len(sa)), NodeID(len(sb))

	// Extend every run backward, bounded by the previous run's end (or 0).
	for i := range ms {
		aLo, bLo := NodeID(0), NodeID(0)
		if i > 0 {
			aLo = ms[i-1].AStart + NodeID(ms[i-1].Len)
			bLo = ms[i-1].BStart + NodeID(ms[i-1].Len)
		}
		for ms[i].AStart > aLo && ms[i].BStart > bLo && sa[ms[i].AStart-1] == sb[ms[i].BStart-1] {
			ms[i].AStart--
			ms[i].BStart--
			ms[i].Len++
		}
	}
	// Extend every run forward, bounded by the next run's start (or the end).
	for i := range ms {
		aHi, bHi := la, lb
		if i+1 < len(ms) {
			aHi, bHi = ms[i+1].AStart, ms[i+1].BStart
		}
		for ms[i].AStart+NodeID(ms[i].Len) < aHi && ms[i].BStart+NodeID(ms[i].Len) < bHi &&
			sa[ms[i].AStart+NodeID(ms[i].Len)] == sb[ms[i].BStart+NodeID(ms[i].Len)] {
			ms[i].Len++
		}
	}
	// Recover an unanchored common prefix the chunk LCS missed.
	aHi, bHi := la, lb
	if len(ms) > 0 {
		aHi, bHi = ms[0].AStart, ms[0].BStart
	}
	pre := Match{}
	for NodeID(pre.Len) < aHi && NodeID(pre.Len) < bHi && sa[pre.Len] == sb[pre.Len] {
		pre.Len++
	}
	if pre.Len > 0 {
		ms = append(ms, Match{})
		copy(ms[1:], ms)
		ms[0] = pre
	}
	// And an unanchored common suffix.
	aLo, bLo := NodeID(0), NodeID(0)
	if len(ms) > 0 {
		aLo = ms[len(ms)-1].AStart + NodeID(ms[len(ms)-1].Len)
		bLo = ms[len(ms)-1].BStart + NodeID(ms[len(ms)-1].Len)
	}
	suf := 0
	for la-NodeID(suf) > aLo && lb-NodeID(suf) > bLo && sa[la-NodeID(suf)-1] == sb[lb-NodeID(suf)-1] {
		suf++
	}
	if suf > 0 {
		ms = append(ms, Match{AStart: la - NodeID(suf), BStart: lb - NodeID(suf), Len: suf})
	}
	// Coalesce contiguous same-offset runs.
	out := ms[:0]
	for _, m := range ms {
		if k := len(out) - 1; k >= 0 &&
			out[k].AStart+NodeID(out[k].Len) == m.AStart &&
			out[k].BStart+NodeID(out[k].Len) == m.BStart {
			out[k].Len += m.Len
		} else {
			out = append(out, m)
		}
	}
	return out
}

// MapAB maps a node id of graph A into graph B, reporting false when the
// node lies in the changed subgraph.
func (d *Diff) MapAB(a NodeID) (NodeID, bool) {
	for _, m := range d.Matches {
		if a >= m.AStart && a < m.AStart+NodeID(m.Len) {
			return m.BStart + (a - m.AStart), true
		}
	}
	return 0, false
}

// SharedSubFingerprints counts how many sub-fingerprints of a (with
// multiplicity) also appear in b — the donor-selection similarity score the
// serve index uses: the size of the two lists' multiset intersection. Both
// arguments are SubFingerprints results sorted ascending (slices.Sort), so
// one merge walk counts it without allocating.
func SharedSubFingerprints(a, b []uint64) int {
	shared, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			shared++
			i++
			j++
		}
	}
	return shared
}
