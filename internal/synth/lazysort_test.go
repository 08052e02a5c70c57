package synth

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hap/internal/models"
)

// mkRefs wraps scores as the merge sees them: idx is the arena position.
func mkRefs(scores []float64) []candRef {
	refs := make([]candRef, len(scores))
	for i, s := range scores {
		refs[i] = candRef{score: s, idx: int32(i)}
	}
	return refs
}

// sameRef compares score bits (NaN equals NaN, -0 differs from +0), idx and
// parent.
func sameRef(a, b candRef) bool {
	return math.Float64bits(a.score) == math.Float64bits(b.score) && a.idx == b.idx && a.parent == b.parent
}

// checkLazyPrefix is the oracle check: slices.SortFunc under cmp.Compare on
// score — the call lazySort replaced — sorts a clone, and every element the
// lazy sorter exposes must equal the clone's at the moment it is first
// readable (not after later advances). It reads up to stop, then drains the
// rest, so both the prefix and the full order are held.
func checkLazyPrefix(t testing.TB, refs []candRef, stop int) {
	t.Helper()
	want := slices.Clone(refs)
	slices.SortFunc(want, func(a, b candRef) int { return cmp.Compare(a.score, b.score) })
	var z lazySort
	z.reset(refs)
	for i := range refs {
		if i >= z.sorted {
			before := z.sorted
			z.advance()
			if z.sorted <= before {
				t.Fatalf("n=%d: advance left the frontier at %d", len(refs), before)
			}
		}
		if !sameRef(refs[i], want[i]) {
			phase := "prefix"
			if i >= stop {
				phase = "drain"
			}
			t.Fatalf("n=%d stop=%d (%s): position %d is %+v, slices.SortFunc has %+v", len(refs), stop, phase, i, refs[i], want[i])
		}
	}
	if z.sorted != len(refs) || len(z.stack) != 0 {
		t.Fatalf("n=%d: drained with sorted=%d, %d ranges pending", len(refs), z.sorted, len(z.stack))
	}
}

// patternCases are the inputs that steer pdqsort off its random-input path:
// the increasing/decreasing hints, partial insertion sort, partitionEqual.
func patternCases() map[string][]float64 {
	gen := func(n int, f func(i int) float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = f(i)
		}
		return s
	}
	cases := map[string][]float64{}
	for _, n := range []int{0, 1, 2, 12, 13, 49, 50, 51, 1000, 4097} {
		cases[fmt.Sprintf("sorted/%d", n)] = gen(n, func(i int) float64 { return float64(i) })
		cases[fmt.Sprintf("reversed/%d", n)] = gen(n, func(i int) float64 { return float64(n - i) })
		cases[fmt.Sprintf("equal/%d", n)] = gen(n, func(int) float64 { return 0.25 })
		cases[fmt.Sprintf("organpipe/%d", n)] = gen(n, func(i int) float64 { return float64(min(i, n-1-i)) })
		cases[fmt.Sprintf("nearlysorted/%d", n)] = gen(n, func(i int) float64 {
			if i%97 == 96 {
				return float64(i - 50)
			}
			return float64(i)
		})
		cases[fmt.Sprintf("sortedties/%d", n)] = gen(n, func(i int) float64 { return float64(i / 7) })
		specials := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1, -1, math.NaN()}
		cases[fmt.Sprintf("specials/%d", n)] = gen(n, func(i int) float64 { return specials[(i*7+i/3)%len(specials)] })
	}
	return cases
}

func TestLazySortMatchesSortFunc(t *testing.T) {
	t.Run("seeded", func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		for c := 0; c < 3000; c++ {
			// A third under 60: the <= 12 insertion sort, the < 50 no-ninther
			// pivot and the < 50 no-shift partial insertion sort.
			n := rng.Intn(9001)
			if c%3 == 0 {
				n = rng.Intn(60)
			}
			// Scores from 1…n distinct values: tie-heavy is the real traffic.
			distinct := 1 + rng.Intn(max(n, 1))
			scores := make([]float64, n)
			for i := range scores {
				scores[i] = float64(rng.Intn(distinct)) / 8
			}
			checkLazyPrefix(t, mkRefs(scores), rng.Intn(n+1))
		}
	})
	t.Run("patterns", func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for name, scores := range patternCases() {
			t.Run(name, func(t *testing.T) {
				checkLazyPrefix(t, mkRefs(scores), rng.Intn(len(scores)+1))
			})
		}
	})
}

// fuzzScores maps fuzz bytes to scores: one byte each, so inputs are
// tie-heavy like real levels, with the top values standing for the floats
// cmp.Compare treats specially.
func fuzzScores(data []byte) []float64 {
	scores := make([]float64, len(data))
	for i, b := range data {
		switch b {
		case 255:
			scores[i] = math.NaN()
		case 254:
			scores[i] = math.Inf(1)
		case 253:
			scores[i] = math.Inf(-1)
		case 252:
			scores[i] = math.Copysign(0, -1)
		default:
			scores[i] = float64(b) / 4
		}
	}
	return scores
}

// FuzzLazySortPrefix holds lazySort to slices.SortFunc on arbitrary score
// sequences and stop indices. The seed corpus (run by plain `go test`) is the
// pattern set of TestLazySortMatchesSortFunc folded to bytes (without the
// longest, which the engine spends its time minimizing rather than mutating).
func FuzzLazySortPrefix(f *testing.F) {
	for _, scores := range patternCases() {
		if len(scores) > 1000 {
			continue
		}
		data := make([]byte, len(scores))
		for i, s := range scores {
			switch {
			case s != s:
				data[i] = 255
			case math.IsInf(s, 1):
				data[i] = 254
			case math.IsInf(s, -1):
				data[i] = 253
			case s == 0 && math.Signbit(s):
				data[i] = 252
			default:
				data[i] = byte(int(math.Abs(s)) % 252)
			}
		}
		f.Add(data, uint16(len(data)/3))
	}
	f.Fuzz(func(t *testing.T, data []byte, stop uint16) {
		checkLazyPrefix(t, mkRefs(fuzzScores(data)), int(stop))
	})
}

// TestLazySortRealLevels replays every level of the VGG19×het8 search — the
// candidate arenas the merge actually sees, ties and all — through the oracle.
func TestLazySortRealLevels(t *testing.T) {
	g, th, c, ratios := benchInput(models.ModelVGG19)
	sy := New(g, th, c, ratios, Options{BeamWidth: 48})
	levels, cands := 0, 0
	rng := rand.New(rand.NewSource(24))
	sy.levelHook = func(_ []*state, refs []candRef) {
		levels++
		cands += len(refs)
		checkLazyPrefix(t, slices.Clone(refs), rng.Intn(len(refs)+1))
	}
	if _, _, err := sy.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if levels < 100 || cands < 100_000 {
		t.Errorf("hook saw %d levels, %d candidates; the VGG19 search has ~134 and ~339k", levels, cands)
	}
}

// TestLazySortAdversarial reaches the branches random inputs rarely do: the
// breakPatterns scatter (after an unbalanced partition) and the heapsort
// fallback (limit exhausted). The input comes from an adversary in the manner
// of McIlroy's "A Killer Adversary for Quicksort", run against
// slices.SortFunc itself: keys start unsettled and compare above every
// settled one; when two unsettled keys meet, a coin settles one of them at
// the next smallest value. Pivot selection therefore settles its samples low,
// every partition puts a handful of keys left and the rest right, and after
// bits.Len(n) such rounds pdqsort gives up. (The coin, rather than McIlroy's
// pivot-candidate rule, is what gets past the increasing-hint shortcut.) The
// settled keys replay the same comparison outcomes — in the original and,
// being a replica, here.
func TestLazySortAdversarial(t *testing.T) {
	const n = 1 << 12
	const unsettled = n
	val := make([]int, n)
	items := make([]int, n)
	for i := range val {
		val[i], items[i] = unsettled, i
	}
	settled := 0
	rng := rand.New(rand.NewSource(25))
	slices.SortFunc(items, func(x, y int) int {
		if val[x] == unsettled && val[y] == unsettled {
			if rng.Intn(2) == 0 {
				val[x] = settled
			} else {
				val[y] = settled
			}
			settled++
		}
		return val[x] - val[y]
	})
	scores := make([]float64, n)
	for i, v := range val {
		scores[i] = float64(v)
	}
	checkLazyPrefix(t, mkRefs(scores), n/2)

	// The stack shows which branches ran: a parked range longer than an
	// insertion sort is heapsorted when popped with limit 0, and scattered by
	// breakPatterns when popped unbalanced with limit left.
	var z lazySort
	z.reset(mkRefs(scores))
	var heapsorts, scatters int
	for z.sorted < n {
		if top := z.stack[len(z.stack)-1]; top.b-top.a > 12 {
			if top.limit == 0 {
				heapsorts++
			} else if !top.wasBalanced {
				scatters++
			}
		}
		z.advance()
	}
	if heapsorts == 0 || scatters == 0 {
		t.Errorf("adversarial input reached heapsort %d times and breakPatterns %d times; want both", heapsorts, scatters)
	}
}

// partitionRefsHoare is partitionRefs as it stood before the block loop:
// pdqsort's scalar Hoare partition, kept as the reference the block version
// must match swap for swap.
func partitionRefsHoare(data []candRef, a, b, pivot int) (newpivot int, alreadyPartitioned bool) {
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

// checkBlockPartition partitions refs[a:b] around refs[pivot] twice, with
// partitionRefs and with the scalar reference, and requires the same returns
// and the same slice — score bits and idx at every position, outside the
// range too.
func checkBlockPartition(t testing.TB, refs []candRef, a, b, pivot int) {
	t.Helper()
	got, want := slices.Clone(refs), slices.Clone(refs)
	gotMid, gotAlready := partitionRefs(got, a, b, pivot)
	wantMid, wantAlready := partitionRefsHoare(want, a, b, pivot)
	if gotMid != wantMid || gotAlready != wantAlready {
		t.Fatalf("n=%d [%d,%d) pivot %d (%v): partitionRefs returns (%d, %v), the scalar loop (%d, %v)",
			len(refs), a, b, pivot, refs[pivot].score, gotMid, gotAlready, wantMid, wantAlready)
	}
	for i := range got {
		if !sameRef(got[i], want[i]) {
			t.Fatalf("n=%d [%d,%d) pivot %d (%v): position %d is %+v, the scalar loop has %+v",
				len(refs), a, b, pivot, refs[pivot].score, i, got[i], want[i])
		}
	}
}

func TestBlockPartitionMatchesHoare(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	// tieHeavy draws n scores from 1…distinct values, a few of them the
	// floats cmp.Compare treats specially.
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	tieHeavy := func(n, distinct int) []float64 {
		scores := make([]float64, n)
		for i := range scores {
			if rng.Intn(50) == 0 {
				scores[i] = specials[rng.Intn(len(specials))]
			} else {
				scores[i] = float64(rng.Intn(distinct)) / 8
			}
		}
		return scores
	}
	// A partition needs a pivot, so the shortest range holds one element;
	// the lengths around one and two blocks past the prologue are listed.
	var lengths []int
	for n := 1; n <= 2000; n += 1 + rng.Intn(13) {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 127, 128, 129, 130, 131, 132, 255, 256, 257, 258, 259, 383, 384, 385, 2000)
	for _, n := range lengths {
		for _, distinct := range []int{1, 2, 3, 8, n} {
			scores := tieHeavy(n, distinct)
			checkBlockPartition(t, mkRefs(scores), 0, n, rng.Intn(n))

			// A sub-range with a > 0, the rest of the slice left alone.
			pad := 1 + rng.Intn(40)
			wide := append(append(tieHeavy(pad, distinct), scores...), tieHeavy(pad, distinct)...)
			checkBlockPartition(t, mkRefs(wide), pad, pad+n, pad+rng.Intn(n))

			// Special pivots. Nothing is less than a NaN one, so its partition
			// ends in the prologue; ±Inf and -0 reach the block loop with a
			// one-sided or a signed-zero comparison.
			for _, p := range specials[:4] {
				pivot := rng.Intn(n)
				s := slices.Clone(scores)
				s[pivot] = p
				checkBlockPartition(t, mkRefs(s), 0, n, pivot)
			}

			// Half the range equal to the pivot.
			s := slices.Clone(scores)
			for _, k := range rng.Perm(n)[:n/2] {
				s[k] = 0.5
			}
			pivot := rng.Intn(n)
			s[pivot] = 0.5
			checkBlockPartition(t, mkRefs(s), 0, n, pivot)
		}
	}
}

// fuzzBlockLen is the length FuzzBlockPartition tiles its bytes to at least:
// room for four blocks after the prologue's first swap, so the block loop
// runs, refills both sides, and hands a tail to the scalar loop.
const fuzzBlockLen = 4*partitionBlock + 3

// FuzzBlockPartition holds partitionRefs to the scalar reference on ranges
// long enough for the block loop. The bytes are scores (fuzzScores), repeated
// until there are at least fuzzBlockLen of them; pivot picks the pivot's
// index. The committed corpus (testdata/fuzz/FuzzBlockPartition) has a NaN
// and a -0 pivot.
func FuzzBlockPartition(f *testing.F) {
	f.Add([]byte{0, 8, 4, 8, 0, 12, 4}, uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, pivot uint16) {
		if len(data) == 0 {
			data = []byte{0}
		}
		tiled := slices.Clone(data)
		for len(tiled) < fuzzBlockLen {
			tiled = append(tiled, data...)
		}
		checkBlockPartition(t, mkRefs(fuzzScores(tiled)), 0, len(tiled), int(pivot)%len(tiled))
	})
}

// TestLazySortAllocs pins the merge at zero allocations: reset and a full
// drain over the largest level of the VGG19×het8 search, so the sort's stack
// and the block loop's state stay off the heap.
func TestLazySortAllocs(t *testing.T) {
	g, th, c, ratios := benchInput(models.ModelVGG19)
	sy := New(g, th, c, ratios, Options{BeamWidth: 48})
	var level []candRef
	sy.levelHook = func(_ []*state, refs []candRef) {
		if len(refs) > len(level) {
			level = slices.Clone(refs)
		}
	}
	if _, _, err := sy.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	work := make([]candRef, len(level))
	var z lazySort
	allocs := testing.AllocsPerRun(20, func() {
		copy(work, level)
		z.reset(work)
		for z.sorted < len(work) {
			z.advance()
		}
	})
	if allocs != 0 {
		t.Errorf("sorting a %d-candidate level allocates %v times; want 0", len(level), allocs)
	}
}
