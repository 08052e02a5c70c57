package fingerprint_test

import (
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
