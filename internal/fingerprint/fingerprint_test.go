package fingerprint_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"hap/internal/cluster"
	"hap/internal/fingerprint"
	"hap/internal/graph"
	"hap/internal/models"
	"hap/internal/segment"
)

// The plan key is wire contract (a client sends it instead of a body) and
// names the files of a persisted cache: these strings were produced by the
// derivation as it stood before it moved here, and must never change without
// a protocol version bump.
func TestPlanKeyGolden(t *testing.T) {
	mlp := models.Training(models.MLP(64, 32, 48, 8))
	pair := cluster.FromGPUs(cluster.DefaultNetwork(),
		cluster.MachineSpec{Type: cluster.V100, GPUs: 1},
		cluster.MachineSpec{Type: cluster.P100, GPUs: 1})
	vgg := models.Training(models.VGG19(32, 64, 10))
	segment.Assign(vgg, 4)

	for _, tc := range []struct {
		name string
		g    *graph.Graph
		c    *cluster.Cluster
		opt  fingerprint.Options
		want string
	}{
		{"mlp on a V100+P100 pair, default options", mlp, pair, fingerprint.Options{},
			"b498b1a9e733ec7f:fd383007238f1049:s0:i0:xfalse:otrue"},
		{"segmented vgg19 on the paper's heterogeneous cluster", vgg, cluster.PaperHeterogeneous(1),
			fingerprint.Options{Segments: 4},
			"7525001bcd7e89e9:0e60e9d708f02dce:s4:i0:xfalse:otrue"},
	} {
		if got := fingerprint.PlanKey(graph.Fingerprint(tc.g), tc.c.Fingerprint(), tc.opt); got != tc.want {
			t.Errorf("%s: key = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// One segment plans as none (the planner segments only past one), so the
// two share a key; every other count keeps its own.
func TestOneSegmentKeysAsNone(t *testing.T) {
	key := func(o fingerprint.Options) string { return fingerprint.PlanKey("aa", "bb", o) }
	if one, none := key(fingerprint.Options{Segments: 1}), key(fingerprint.Options{}); one != none {
		t.Errorf("segments 1 keys as %q, segments 0 as %q: want one key", one, none)
	}
	for _, n := range []int{-1, 2} {
		if k := key(fingerprint.Options{Segments: n}); k == key(fingerprint.Options{}) {
			t.Errorf("segments %d shares the default key %q", n, k)
		}
	}
}

// The signature is the tail of the key; the retired options' slots hold
// the values every request plans under.
func TestOptionsSig(t *testing.T) {
	base := fingerprint.Options{Segments: 2}
	if want := "s2:i0:xfalse:otrue"; base.Sig() != want {
		t.Errorf("sig = %q, want %q", base.Sig(), want)
	}
	if got, want := fingerprint.PlanKey("aa", "bb", base), "aa:bb:"+base.Sig(); got != want {
		t.Errorf("PlanKey = %q, want %q", got, want)
	}
}

// The hasher is FNV-1a 64 over little-endian words — the same function the
// plan→graph binding check uses, pinned here by value.
func TestHasherGolden(t *testing.T) {
	h := fingerprint.New()
	h.Int(-1)
	h.Float(0.5)
	if got, want := h.Sum(), "77a0b936690d04d0"; got != want {
		t.Errorf("Sum = %q, want %q", got, want)
	}
}

// The inline hasher is hash/fnv's New64a over each value's 8 little-endian
// bytes: on random sequences of Int and Float, Sum64 and Sum agree with the
// library hash bit for bit.
func TestHasherMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64}
	for seq := 0; seq < 500; seq++ {
		h := fingerprint.New()
		ref := fnv.New64a()
		var buf [8]byte
		for i, n := 0, rng.Intn(40); i < n; i++ {
			var bits uint64
			switch rng.Intn(4) {
			case 0:
				v := int(rng.Int63()) - math.MaxInt64/2
				h.Int(v)
				bits = uint64(int64(v))
			case 1:
				v := rng.Intn(33) - 16
				h.Int(v)
				bits = uint64(int64(v))
			case 2:
				v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
				h.Float(v)
				bits = math.Float64bits(v)
			default:
				v := specials[rng.Intn(len(specials))]
				h.Float(v)
				bits = math.Float64bits(v)
			}
			binary.LittleEndian.PutUint64(buf[:], bits)
			ref.Write(buf[:])
		}
		if got, want := h.Sum64(), ref.Sum64(); got != want {
			t.Fatalf("sequence %d: Sum64 = %x, hash/fnv = %x", seq, got, want)
		}
		if got, want := h.Sum(), fmt.Sprintf("%016x", ref.Sum64()); got != want {
			t.Fatalf("sequence %d: Sum = %q, hash/fnv = %q", seq, got, want)
		}
	}
}

// A Hasher is a value: hashing allocates nothing, and Sum allocates only
// its string.
func TestHasherAllocations(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() {
		h := fingerprint.New()
		h.Int(3)
		h.Float(0.25)
		_ = h.Sum64()
	}); n != 0 {
		t.Errorf("hashing made %.0f allocations, want 0", n)
	}
	var sum string
	if n := testing.AllocsPerRun(10, func() {
		h := fingerprint.New()
		h.Int(3)
		sum = h.Sum()
	}); n > 1 {
		t.Errorf("Sum made %.0f allocations, want at most 1 (its string)", n)
	}
	_ = sum
}
