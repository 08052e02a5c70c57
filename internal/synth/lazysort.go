// The beam's merge order, evaluated lazily.
//
// This file is an exact replica of the pattern-defeating quicksort behind
// slices.SortFunc (Go's slices/zsortanyfunc.go, BSD-licensed, © The Go
// Authors), specialised to []candRef under cmp.Compare on score, with one
// change of schedule and none of outcome: where the original recurses into
// the smaller side of a partition and loops on the larger, lazySort always
// descends into the LEFT side and parks the right one — with the limit,
// wasBalanced and wasPartitioned it would have been sorted under — on an
// explicit stack. Sub-ranges of a pdqsort are independent: sorting
// data[a:b] reads and writes only data[a:b] plus a read of data[a-1], which
// is a pivot (or an element equal to one) already in its final place;
// breakPatterns seeds its xorshift from the range length; and the three
// carried fields pass by value. So every range this replica touches sees the
// same comparisons, pivots and swaps as under slices.SortFunc, in whatever
// order the ranges are visited, and ranges wholly right of the last element
// the beam reads are simply never visited. data[:sorted] is final — equal,
// element for element (score and idx), to the full sort's prefix; the
// selection loop calls advance when its index reaches the frontier.
//
// The beam reads 1–3 % of a level's candidates before the BeamWidth cut or
// the bestCost break, so a level costs about 2C comparisons (the first
// partitions) plus a short sorted prefix instead of C log C. Which of several
// equal-score candidates comes first is this file's deterministic permutation
// of the arena order, pinned by TestGoldenPlanIdentity — the repository's own
// code, not the toolchain's. When ROADMAP B defines ties on purpose
// ((score, state key)), this file is what it deletes in favour of a plain
// top-K select; slices.SortFunc survives as the oracle in lazysort_test.go.

package synth

import "math/bits"

// refLess is cmp.Compare(x.score, y.score) < 0 for every pair of float64s:
// NaN sorts before everything else, -0 and +0 are equal.
func refLess(x, y candRef) bool {
	return x.score < y.score || (x.score != x.score && y.score == y.score)
}

// sortRange is a parked pdqsort invocation: sort data[a:b] under the carried
// limit and pattern flags.
type sortRange struct {
	a, b           int32
	limit          int32
	wasBalanced    bool
	wasPartitioned bool
}

// lazySort sorts a []candRef left to right on demand. The zero value is
// ready for reset.
type lazySort struct {
	data []candRef
	// sorted is the frontier: data[:sorted] is in its final order.
	sorted int
	// stack holds the pending ranges, leftmost on top: the right-hand
	// siblings along one root-to-leaf path of the partition tree, at most
	// log₈⸝₇(n) balanced descents plus bits.Len(n) unbalanced ones. buf backs
	// it without an allocation (levels run to ~10⁵ candidates and ~30 deep);
	// append grows past it if a level ever needs more.
	stack []sortRange
	buf   [128]sortRange
}

// reset points the sorter at data, unsorted.
func (z *lazySort) reset(data []candRef) {
	z.data, z.sorted, z.stack = data, 0, z.buf[:0]
	if n := len(data); n < 2 {
		z.sorted = n
	} else {
		z.stack = append(z.stack, sortRange{0, int32(n), int32(bits.Len(uint(n))), true, true})
	}
}

// park pushes a range that still needs sorting; ranges of fewer than two
// elements need none (the original insertion-sorts them, a no-op).
func (z *lazySort) park(a, b, limit int, wasBalanced, wasPartitioned bool) {
	if b-a >= 2 {
		z.stack = append(z.stack, sortRange{int32(a), int32(b), int32(limit), wasBalanced, wasPartitioned})
	}
}

// advance moves the frontier past at least one more element: it finishes
// the leftmost pending range's leftmost leaf. Callers check sorted < len(data).
func (z *lazySort) advance() {
	if len(z.stack) == 0 {
		return
	}
	r := z.stack[len(z.stack)-1]
	z.stack = z.stack[:len(z.stack)-1]
	z.sortLeft(int(r.a), int(r.b), int(r.limit), r.wasBalanced, r.wasPartitioned)
	// Everything left of the next pending range is final (the element
	// between two ranges is a placed pivot).
	if len(z.stack) > 0 {
		z.sorted = int(z.stack[len(z.stack)-1].a)
	} else {
		z.sorted = len(z.data)
	}
}

// sortLeft is pdqsortCmpFunc's loop on data[a:b], descending left: it
// returns once a leaf (insertion sort, heapsort, or a successful partial
// insertion sort) has finished the leftmost part, every right-hand side
// parked on the way down.
func (z *lazySort) sortLeft(a, b, limit int, wasBalanced, wasPartitioned bool) {
	const maxInsertion = 12
	data := z.data
	for {
		length := b - a

		if length <= maxInsertion {
			insertionSortRefs(data, a, b)
			return
		}

		// Fall back to heapsort if too many bad choices were made.
		if limit == 0 {
			heapSortRefs(data, a, b)
			return
		}

		// If the last partitioning was imbalanced, break patterns.
		if !wasBalanced {
			breakPatternsRefs(data, a, b)
			limit--
		}

		pivot, hint := choosePivotRefs(data, a, b)
		if hint == decreasingHint {
			reverseRangeRefs(data, a, b)
			pivot = (b - 1) - (pivot - a)
			hint = increasingHint
		}

		// The slice is likely already sorted.
		if wasBalanced && wasPartitioned && hint == increasingHint {
			if partialInsertionSortRefs(data, a, b) {
				return
			}
		}

		// Probably many duplicates: split into elements equal to the pivot and
		// elements greater. The equal run is final; the rest keeps the flags.
		if a > 0 && !refLess(data[a-1], data[pivot]) {
			a = partitionEqualRefs(data, a, b, pivot)
			z.park(a, b, limit, wasBalanced, wasPartitioned)
			return
		}

		mid, alreadyPartitioned := partitionRefs(data, a, b, pivot)

		// The original recurses into the smaller side with fresh flags and
		// loops on the larger with the updated ones; here the right side is
		// parked with whichever it would have had.
		leftLen, rightLen := mid-a, b-mid
		balanceThreshold := length / 8
		if leftLen < rightLen {
			z.park(mid+1, b, limit, leftLen >= balanceThreshold, alreadyPartitioned)
			wasBalanced, wasPartitioned = true, true
		} else {
			z.park(mid+1, b, limit, true, true)
			wasBalanced, wasPartitioned = rightLen >= balanceThreshold, alreadyPartitioned
		}
		b = mid
	}
}

// insertionSortRefs sorts data[a:b] using insertion sort.
func insertionSortRefs(data []candRef, a, b int) {
	for i := a + 1; i < b; i++ {
		for j := i; j > a && refLess(data[j], data[j-1]); j-- {
			data[j], data[j-1] = data[j-1], data[j]
		}
	}
}

// siftDownRefs implements the heap property on data[lo:hi]; first is the
// offset of the heap's root.
func siftDownRefs(data []candRef, lo, hi, first int) {
	root := lo
	for {
		child := 2*root + 1
		if child >= hi {
			break
		}
		if child+1 < hi && refLess(data[first+child], data[first+child+1]) {
			child++
		}
		if !refLess(data[first+root], data[first+child]) {
			return
		}
		data[first+root], data[first+child] = data[first+child], data[first+root]
		root = child
	}
}

func heapSortRefs(data []candRef, a, b int) {
	first := a
	lo := 0
	hi := b - a

	// Build heap with greatest element at top.
	for i := (hi - 1) / 2; i >= 0; i-- {
		siftDownRefs(data, i, hi, first)
	}

	// Pop elements, largest first, into end of data.
	for i := hi - 1; i >= 0; i-- {
		data[first], data[first+i] = data[first+i], data[first]
		siftDownRefs(data, lo, i, first)
	}
}

// partitionRefs does one quicksort partition around p = data[pivot]: on
// return data[newpivot] = p, everything left of it is < p and everything
// right of it is >= p.
func partitionRefs(data []candRef, a, b, pivot int) (newpivot int, alreadyPartitioned bool) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // inclusive bounds of what remains to be partitioned

	for i <= j && refLess(data[i], data[a]) {
		i++
	}
	for i <= j && !refLess(data[j], data[a]) {
		j--
	}
	if i > j {
		data[j], data[a] = data[a], data[j]
		return j, true
	}
	data[i], data[j] = data[j], data[i]
	i++
	j--

	for {
		for i <= j && refLess(data[i], data[a]) {
			i++
		}
		for i <= j && !refLess(data[j], data[a]) {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	data[j], data[a] = data[a], data[j]
	return j, false
}

// partitionEqualRefs partitions data[a:b] into elements equal to data[pivot]
// followed by elements greater; data[a:b] holds nothing smaller.
func partitionEqualRefs(data []candRef, a, b, pivot int) (newpivot int) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1

	for {
		for i <= j && !refLess(data[a], data[i]) {
			i++
		}
		for i <= j && refLess(data[a], data[j]) {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	return i
}

// partialInsertionSortRefs partially sorts data[a:b]; true if it ends sorted.
func partialInsertionSortRefs(data []candRef, a, b int) bool {
	const (
		maxSteps         = 5  // adjacent out-of-order pairs that will get shifted
		shortestShifting = 50 // don't shift any elements on short arrays
	)
	i := a + 1
	for j := 0; j < maxSteps; j++ {
		for i < b && !refLess(data[i], data[i-1]) {
			i++
		}

		if i == b {
			return true
		}

		if b-a < shortestShifting {
			return false
		}

		data[i], data[i-1] = data[i-1], data[i]

		// Shift the smaller one to the left. (j >= 1, not j > a, is the
		// original's bound: on a range with a > 0 the shift can run past a,
		// and the replica keeps that to the letter.)
		if i-a >= 2 {
			for j := i - 1; j >= 1; j-- {
				if !refLess(data[j], data[j-1]) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
		// Shift the greater one to the right.
		if b-i >= 2 {
			for j := i + 1; j < b; j++ {
				if !refLess(data[j], data[j-1]) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
	}
	return false
}

// xorshift is the generator of "Xorshift RNGs" (Marsaglia), as in package
// slices.
type xorshift uint64

func (r *xorshift) Next() uint64 {
	*r ^= *r << 13
	*r ^= *r >> 7
	*r ^= *r << 17
	return uint64(*r)
}

// breakPatternsRefs scatters three elements around the middle to break
// patterns that cause imbalanced partitions. The generator is seeded by the
// range length alone, so the scatter does not depend on when the range runs.
func breakPatternsRefs(data []candRef, a, b int) {
	length := b - a
	if length >= 8 {
		random := xorshift(length)
		modulus := uint(1) << bits.Len(uint(length))

		for idx := a + (length/4)*2 - 1; idx <= a+(length/4)*2+1; idx++ {
			other := int(uint(random.Next()) & (modulus - 1))
			if other >= length {
				other -= length
			}
			data[idx], data[a+other] = data[a+other], data[idx]
		}
	}
}

type sortedHint int // hint for pdqsort when choosing the pivot

const (
	unknownHint sortedHint = iota
	increasingHint
	decreasingHint
)

// choosePivotRefs chooses a pivot in data[a:b]: static below 8 elements,
// median of three below 50, Tukey's ninther from there.
func choosePivotRefs(data []candRef, a, b int) (pivot int, hint sortedHint) {
	const (
		shortestNinther = 50
		maxSwaps        = 4 * 3
	)

	l := b - a

	var (
		swaps int
		i     = a + l/4*1
		j     = a + l/4*2
		k     = a + l/4*3
	)

	if l >= 8 {
		if l >= shortestNinther {
			i = medianRefs(data, i-1, i, i+1, &swaps)
			j = medianRefs(data, j-1, j, j+1, &swaps)
			k = medianRefs(data, k-1, k, k+1, &swaps)
		}
		j = medianRefs(data, i, j, k, &swaps)
	}

	switch swaps {
	case 0:
		return j, increasingHint
	case maxSwaps:
		return j, decreasingHint
	default:
		return j, unknownHint
	}
}

// order2Refs returns x, y where data[x] <= data[y], x, y being a, b or b, a.
func order2Refs(data []candRef, a, b int, swaps *int) (int, int) {
	if refLess(data[b], data[a]) {
		*swaps++
		return b, a
	}
	return a, b
}

// medianRefs returns x where data[x] is the median of data[a], data[b],
// data[c].
func medianRefs(data []candRef, a, b, c int, swaps *int) int {
	a, b = order2Refs(data, a, b, swaps)
	b, c = order2Refs(data, b, c, swaps)
	a, b = order2Refs(data, a, b, swaps)
	return b
}

func reverseRangeRefs(data []candRef, a, b int) {
	i := a
	j := b - 1
	for i < j {
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
}
