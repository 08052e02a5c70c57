package hapopt

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"hap/internal/balance"
	"hap/internal/cluster"
	"hap/internal/cost"
	"hap/internal/graph"
	"hap/internal/models"
	"hap/internal/synth"
)

// goldenLoop is one Optimize run as the balancer saw it: the FNV-64a of
// math.Float64bits over every B⁽ᵏ⁾ it handed back, in order, how many
// iterations ran and why the loop ended.
type goldenLoop struct {
	ratios     string
	iterations string
	stop       string
}

// goldenLoops was generated with the ratio LP over device classes (one B
// variable per class, see balance.RatiosFromModel). synth's
// TestGoldenPlanIdentity runs one search at B⁽⁰⁾ and never reaches the
// balancer; this table is the guard that a solver
// change moved no ratio by a single bit on the benchmark's inputs. A failure
// logs the row as built now; replace rows only in a change that means to
// move B.
var goldenLoops = map[string]goldenLoop{
	"mlp/pg32/seg4":      {"45aa8b78e914d7e5", "2", "ratios_converged"},
	"mlp/pg32/seg1":      {"8c73ee8fb09cff85", "1", "ratios_converged"},
	"bert4/pg16/seg4":    {"4a983ff54a01bf95", "4", "max_iterations"},
	"vgg19r64/pg16/seg4": {"e25c04a56244c635", "2", "ratios_converged"},
	"vgg19/het8":         {"c4567c15f4525d9d", "1", "ratios_converged"},
	"bert6/a100p100":     {"cbaee9c2293ecf95", "1", "ratios_converged"},
	"moe4/het8":          {"3cd3f00f0ba3ae35", "1", "ratios_converged"},
}

// benchPerGPU is bench/inputs.go's per-GPU cluster: V100, P100, A100, P100
// machines with n GPUs each.
func benchPerGPU(n int) *cluster.Cluster {
	return cluster.FromGPUs(cluster.DefaultNetwork(),
		cluster.MachineSpec{Type: cluster.V100, GPUs: n}, cluster.MachineSpec{Type: cluster.P100, GPUs: n},
		cluster.MachineSpec{Type: cluster.A100, GPUs: n}, cluster.MachineSpec{Type: cluster.P100, GPUs: n})
}

func TestGoldenRatios(t *testing.T) {
	pg16, pg32 := benchPerGPU(4), benchPerGPU(8)
	het8, a1p1 := cluster.PaperHeterogeneous(1), cluster.PaperA100P100()
	bert := func(c *cluster.Cluster, layers, experts int) *graph.Graph {
		cfg, m := models.BERTBase(), models.ModelBERTBase
		if experts > 0 {
			cfg, m = models.BERTMoE(experts), models.ModelBERTMoE
			cfg.Vocab = 8192
		}
		cfg.Layers = layers
		return bertGraph(cfg, models.PerDeviceBatch(m)*c.TotalGPUs())
	}
	vgg := func(c *cluster.Cluster, resolution int) *graph.Graph {
		return models.Training(models.VGG19(models.PerDeviceBatch(models.ModelVGG19)*c.TotalGPUs(), resolution, 10))
	}
	mlp := func(c *cluster.Cluster) *graph.Graph {
		return models.Training(models.MLP(64*c.TotalGPUs(), 1024, 4096, 4096, 4096, 1024, 10))
	}
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		c        *cluster.Cluster
		segments int
	}{
		{"mlp/pg32/seg4", mlp(pg32), pg32, 4},
		{"mlp/pg32/seg1", mlp(pg32), pg32, 1},
		{"bert4/pg16/seg4", bert(pg16, 4, 0), pg16, 4},
		{"vgg19r64/pg16/seg4", vgg(pg16, 64), pg16, 4},
		{"vgg19/het8", vgg(het8, 224), het8, 0},
		{"bert6/a100p100", bert(a1p1, 6, 0), a1p1, 0},
		{"moe4/het8", bert(het8, 4, 8), het8, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := fnv.New64a()
			opt := Options{Segments: tc.segments, Synth: synth.Auto()}
			opt.balance = func(m *cost.Model) ([][]float64, error) {
				b, err := balance.RatiosFromModel(m)
				var w [8]byte
				for _, row := range b {
					for _, v := range row {
						binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
						h.Write(w[:])
					}
				}
				return b, err
			}
			_, _, attrs, err := optimizeTraced(tc.g, tc.c, opt)
			if err != nil {
				t.Fatalf("Optimize: %v", err)
			}
			got := goldenLoop{fmt.Sprintf("%016x", h.Sum64()), attrs["iterations"], attrs["stop"]}
			if want := goldenLoops[tc.name]; got != want {
				t.Errorf("loop moved:\n  got  %q: {%q, %q, %q},\n  want %+v", tc.name, got.ratios, got.iterations, got.stop, want)
			}
		})
	}
}
