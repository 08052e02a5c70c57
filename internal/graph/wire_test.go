package graph_test

import (
	"bytes"
	"math"
	"testing"

	"hap/internal/graph"
	"hap/internal/models"
	"hap/internal/tensor"
)

// wireGraphs are the graphs the wire-byte gates run on: the paper's models
// at their benchmark sizes, a segmented MLP, and a hand-built graph whose
// names and floats take every branch of the writer (HTML-sensitive and
// non-ASCII names, both float formats and their boundaries, a nil and an
// empty shape).
func wireGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	bert := models.BERTBase()
	moe := models.BERTMoE(8)
	moe.Layers, moe.Vocab = 4, 8192
	segmented := models.Training(models.MLP(256, 1024, 1024, 1024, 10))
	segmented.SegmentOf = make([]int, segmented.NumNodes())
	for i := segmented.NumNodes() / 2; i < segmented.NumNodes(); i++ {
		segmented.SegmentOf[i] = 1
	}
	odd := graph.New()
	x := odd.AddPlaceholder("x<&>\"\\\n", 0, 8, 4)
	for i, f := range []float64{1e-6, 9.99e-7, 1e21, 9.99e20, -0.5, 5e-324, 1.7976931348623157e308, 123456789.125, -1e-9, 3} {
		s := odd.AddScale(x, f)
		odd.Node(s).FlopsPerSample = -f
		odd.Node(s).Name = []string{"ü", " ", "a\x7fb", "\xff", "plain"}[i%5]
	}
	odd.Nodes = append(odd.Nodes,
		graph.Node{ID: graph.NodeID(len(odd.Nodes)), Kind: graph.Parameter, BatchDim: -1},
		graph.Node{ID: graph.NodeID(len(odd.Nodes) + 1), Kind: graph.Ones, Shape: tensor.Shape{}, BatchDim: -1})
	return map[string]*graph.Graph{
		"MLP":           models.Training(models.MLP(64, 512, 256, 10)),
		"VGG19":         models.Training(models.VGG19(256, 224, 10)),
		"ViT":           models.Training(models.ViT(models.ViTConfig(), 64*197, 16*16*3, 10)),
		"BERT":          models.Training(models.BERT(bert, 64*bert.SeqLen)),
		"BERT-MoE":      models.Training(models.BERT(moe, 64*moe.SeqLen)),
		"segmented MLP": segmented,
		"odd":           odd,
	}
}

// TestGraphWireBytes holds the reflection-free writers to encoding/json:
// Encode writes the indented bytes a json.Encoder wrote for the graph's
// graphJSON, AppendJSON the compact bytes json.Marshal writes, and the
// compact bytes decode to the same graph on both readers. A NaN or ±Inf
// float still fails to encode. (The client's request body is held to
// json.Marshal in the client package's TestGraphWireBytes.)
func TestGraphWireBytes(t *testing.T) {
	for name, g := range wireGraphs(t) {
		t.Run(name, func(t *testing.T) {
			compact, indented, err := graph.WireOracle(g)
			if err != nil {
				t.Fatal(err)
			}
			var enc bytes.Buffer
			if err := g.Encode(&enc); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc.Bytes(), indented) {
				t.Errorf("Encode differs from the encoding/json oracle at byte %d", firstDiff(enc.Bytes(), indented))
			}
			got, err := g.AppendJSON([]byte("prefix"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, append([]byte("prefix"), compact...)) {
				t.Errorf("AppendJSON differs from json.Marshal at byte %d", firstDiff(got[len("prefix"):], compact))
			}
			fast, err := decodeAgreeing(t, compact)
			if err != nil {
				t.Fatal(err)
			}
			if graph.Fingerprint(fast) != graph.Fingerprint(g) {
				t.Error("the round trip moved the fingerprint")
			}
		})
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		g := models.Training(models.MLP(8, 4, 3))
		s := g.AddScale(0, 2)
		g.Node(s).ScaleFactor = bad
		if err := g.Encode(&bytes.Buffer{}); err == nil {
			t.Errorf("Encode accepted scale %v", bad)
		}
		if _, err := g.AppendJSON(nil); err == nil {
			t.Errorf("AppendJSON accepted scale %v", bad)
		}
		g.Node(s).ScaleFactor, g.Node(s).FlopsPerSample = 2, bad
		if _, err := g.AppendJSON(nil); err == nil {
			t.Errorf("AppendJSON accepted flops_per_sample %v", bad)
		}
	}
}

func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}
