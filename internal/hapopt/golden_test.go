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
	"hap/internal/theory"
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
// variable per class, see balance.RatiosFromModel), on programs the
// liveness walk (theory.Checker.Live) has cleaned, and with the loop ending
// at the first iteration that does not beat the best. synth's
// TestGoldenPlanIdentity runs one search at B⁽⁰⁾ and never reaches the
// balancer; this table is the guard that a solver
// change moved no ratio by a single bit on the benchmark's inputs. A failure
// logs the row as built now; replace rows only in a change that means to
// move B. Every row's plan is also walked again: it must keep no
// instruction the walk drops.
var goldenLoops = map[string]goldenLoop{
	"mlp/pg32/seg4":      {"e431d494f01a8185", "2", "no_improvement"},
	"mlp/pg32/seg1":      {"afa5a9766adfdd65", "1", "ratios_converged"},
	"bert4/pg16/seg4":    {"b517652fe35455cd", "4", "no_improvement"},
	"vgg19r64/pg16/seg4": {"ba7bdcf3f7075ec5", "2", "ratios_converged"},
	"vgg19/het8":         {"5557e06870496071", "1", "ratios_converged"},
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
			res, _, attrs, err := optimizeTraced(tc.g, tc.c, opt)
			if err != nil {
				t.Fatalf("Optimize: %v", err)
			}
			prog := res.Program.Clone()
			check := theory.NewChecker(theory.New(prog.Graph))
			if dropped, err := check.Live(prog); dropped != 0 || err != nil {
				t.Errorf("the plan keeps %d instructions the liveness walk drops (%v)", dropped, err)
			}
			got := goldenLoop{fmt.Sprintf("%016x", h.Sum64()), attrs["iterations"], attrs["stop"]}
			if want := goldenLoops[tc.name]; got != want {
				t.Errorf("loop moved:\n  got  %q: {%q, %q, %q},\n  want %+v", tc.name, got.ratios, got.iterations, got.stop, want)
			}
		})
	}
}
