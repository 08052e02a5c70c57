package hap

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"testing"

	"hap/internal/cluster"
	"hap/internal/graph"
	"hap/internal/models"
	"hap/internal/planwire"
)

// warmInput is one input of the benchmark's serve_warm workload, built as
// bench/inputs.go builds it (both clusters have eight GPUs).
type warmInput struct {
	name  string
	build func() *Graph
	c     *Cluster
}

func warmInputs() []warmInput {
	const gpus = 8
	het8, hom4 := cluster.PaperHeterogeneous(1), cluster.PaperHomogeneous(2)
	vgg19 := func() *Graph {
		return models.Training(models.VGG19(models.PerDeviceBatch(models.ModelVGG19)*gpus, 224, 10))
	}
	vit := func() *Graph {
		cfg := models.ViTConfig()
		return models.Training(models.ViT(cfg, models.PerDeviceBatch(models.ModelViT)*gpus*cfg.SeqLen, 16*16*3, 10))
	}
	bert12 := func() *Graph {
		cfg := models.BERTBase()
		cfg.Layers = 12
		return models.Training(models.BERT(cfg, models.PerDeviceBatch(models.ModelBERTBase)*gpus*cfg.SeqLen))
	}
	moe4 := func() *Graph {
		cfg := models.BERTMoE(8)
		cfg.Vocab, cfg.Layers = 8192, 4
		return models.Training(models.BERT(cfg, models.PerDeviceBatch(models.ModelBERTMoE)*gpus*cfg.SeqLen))
	}
	return []warmInput{
		{"vgg19/het8", vgg19, het8},
		{"vgg19/hom4", vgg19, hom4},
		{"vit/hom4", vit, hom4},
		{"bert12/hom4", bert12, hom4},
		{"moe4/het8", moe4, het8},
	}
}

// planColdInputs are the benchmark's plan_cold inputs, built as
// bench/inputs.go builds them: four serve_warm inputs and BERT-Base cut to six
// layers on the A100+P100 testbed.
func planColdInputs() []warmInput {
	warm := warmInputs()
	a1p1 := cluster.PaperA100P100()
	bert6 := func() *Graph {
		cfg := models.BERTBase()
		cfg.Layers = 6
		return models.Training(models.BERT(cfg, models.PerDeviceBatch(models.ModelBERTBase)*a1p1.TotalGPUs()*cfg.SeqLen))
	}
	return []warmInput{warm[0], warm[1], warm[2], {"bert6/a100p100", bert6, a1p1}, warm[4]}
}

// warmPayload plans in and returns its binary payload, a fresh graph to
// bind it to and that graph's fingerprint: what the Go client holds when a
// warm hit's answer arrives.
func warmPayload(tb testing.TB, in warmInput) (data []byte, g *Graph, fp string) {
	tb.Helper()
	plan, err := planWith(in.build(), in.c, Options{})
	if err != nil {
		tb.Fatalf("%s: Plan: %v", in.name, err)
	}
	var buf bytes.Buffer
	if err := plan.WriteProgramBinary(&buf); err != nil {
		tb.Fatalf("%s: WriteProgramBinary: %v", in.name, err)
	}
	g = in.build()
	return buf.Bytes(), g, graph.Fingerprint(g)
}

// BenchmarkReadBinary times the client's plan decode on a warm hit,
// planwire.ReadBinary with the fingerprint the cache key already took, on
// the serve_warm inputs.
func BenchmarkReadBinary(b *testing.B) {
	for _, in := range warmInputs() {
		data, g, fp := warmPayload(b, in)
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := planwire.ReadBinary(data, g, fp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestReadBinaryAllocationPin pins the allocations of the client's plan
// decode exactly (measured with go1.24). Six are the program's (its struct,
// instructions, two name tables, the graph hash as a string, Validate's
// defined set), the rest the trailer's: the ratio rows and each row grown by
// append, four allocations for het8's eight devices, three for hom4's four.
// Through encoding/json the trailer made seven more; a slab of the
// instructions' input lists made one more (12 and 11).
func TestReadBinaryAllocationPin(t *testing.T) {
	pins := map[string]float64{"vgg19/het8": 11, "bert12/hom4": 10}
	for _, in := range warmInputs() {
		pin, ok := pins[in.name]
		if !ok {
			continue
		}
		data, g, fp := warmPayload(t, in)
		got := testing.AllocsPerRun(20, func() {
			if _, _, _, err := planwire.ReadBinary(data, g, fp); err != nil {
				t.Fatal(err)
			}
		})
		if got != pin {
			t.Errorf("%s: ReadBinary made %.0f allocations, pin %.0f", in.name, got, pin)
		}
	}
}

// TestWriteProgramBinaryAllocationPin pins the allocations of the payload
// writer exactly on go1.24 (a quarter more elsewhere): the graph
// fingerprint's digest and the payload appended in one buffer sized for
// program and trailer. While the program went through a bufio writer with
// varint closures and two maps for its name tables, and the payload through
// two bytes.Buffers, it made 20 allocations and 8 040 bytes on vgg19/het8,
// 18 and 7 800 on bert12/hom4; while encoding/json wrote the trailer, 4
// (and 5 to 7 under the race detector, which drops its pooled encoder state
// at random, so the pin was skipped there). The writer pools nothing now,
// so the pin holds under the race detector too, at one more: there
// slices.Grow's append of a make is compiled without its optimization, and
// the make allocates.
func TestWriteProgramBinaryAllocationPin(t *testing.T) {
	pin := 2.0
	if raceEnabled {
		pin = 3
	}
	exact := strings.HasPrefix(runtime.Version(), "go1.24")
	for _, in := range warmInputs() {
		if in.name != "vgg19/het8" && in.name != "bert12/hom4" {
			continue
		}
		plan, err := planWith(in.build(), in.c, Options{})
		if err != nil {
			t.Fatalf("%s: Plan: %v", in.name, err)
		}
		got := testing.AllocsPerRun(20, func() {
			if err := plan.WriteProgramBinary(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		if got != pin && (exact || got > pin*5/4) {
			t.Errorf("%s: WriteProgramBinary made %.0f allocations, pin %.0f", in.name, got, pin)
		}
	}
}
