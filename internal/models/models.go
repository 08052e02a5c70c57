// Package models builds the single-device computation graphs for the
// paper's benchmark workloads (Table 1): VGG19, ViT, BERT-Base and
// BERT-MoE, plus small MLPs used in unit tests and the quickstart example.
//
// Shapes follow the 2-D token-major convention of Megatron-style SPMD
// systems: activations are (tokens, hidden). The attention core and
// convolution spatial structure are represented by cost-accurate dedicated
// ops (graph.Attention, graph.Conv, graph.Pool); see DESIGN.md for the
// substitution argument.
package models

import (
	"fmt"
	"math/rand"

	"hap/internal/autodiff"
	"hap/internal/graph"
)

// MLP builds loss = sum(scale(f_L(...f_1(x)))) with the given layer widths,
// alternating MatMul and ReLU. It is numerically executable end to end.
func MLP(batch int, widths ...int) *graph.Graph {
	if len(widths) < 2 {
		panic("models: MLP needs at least input and output widths")
	}
	g := graph.New()
	x := g.AddPlaceholder("x", 0, batch, widths[0])
	h := x
	for i := 1; i < len(widths); i++ {
		w := g.AddParameter(fmt.Sprintf("w%d", i), widths[i-1], widths[i])
		h = g.AddOp(graph.MatMul, h, w)
		if i != len(widths)-1 {
			h = g.AddOp(graph.ReLU, h)
		}
	}
	g.SetLoss(g.AddOp(graph.Sum, g.AddScale(h, 1/float64(batch))))
	return g
}

// RandomTraining builds a random small MLP-family training graph from rng's
// draws: 1–3 matmul layers over a random batch and widths, random
// activations (ReLU/Sigmoid/GeLU/Softmax), element-wise parameter
// interactions (Add/Mul), scaling, an occasional two-branch fan-out with
// gradient accumulation, and a full backward pass. The differential
// harness fuzzes this family, and the load generator's corpus is drawn
// from it.
func RandomTraining(rng *rand.Rand) *graph.Graph {
	g := graph.New()
	activation := func(id graph.NodeID) graph.NodeID { // one of four, or none
		if k := rng.Intn(5); k < 4 {
			return g.AddOp([...]graph.OpKind{graph.ReLU, graph.Sigmoid, graph.GeLU, graph.Softmax}[k], id)
		}
		return id
	}
	b := []int{16, 32, 64}[rng.Intn(3)]
	f := 4 + rng.Intn(29)
	cur := g.AddPlaceholder("x", 0, b, f)
	layers := 1 + rng.Intn(3)
	for l := 0; l < layers; l++ {
		out := 4 + rng.Intn(29)
		if rng.Intn(4) == 0 {
			// Two-branch layer: y = act(x·w) ⊕ act'(x·w').
			w1 := g.AddParameter(fmt.Sprintf("w%da", l), f, out)
			w2 := g.AddParameter(fmt.Sprintf("w%db", l), f, out)
			h1 := activation(g.AddOp(graph.MatMul, cur, w1))
			cur = g.AddOp(graph.Add, h1, activation(g.AddOp(graph.MatMul, cur, w2)))
		} else {
			w := g.AddParameter(fmt.Sprintf("w%d", l), f, out)
			cur = activation(g.AddOp(graph.MatMul, cur, w))
			if rng.Intn(3) == 0 {
				// Element-wise interaction with a full-shape parameter.
				p, op := g.AddParameter(fmt.Sprintf("p%d", l), b, out), graph.Add
				if rng.Intn(2) != 0 {
					op = graph.Mul
				}
				cur = g.AddOp(op, cur, p)
			}
		}
		f = out
		if rng.Intn(4) == 0 {
			cur = g.AddScale(cur, 0.25+rng.Float64())
		}
	}
	g.SetLoss(g.AddOp(graph.Sum, g.AddScale(cur, 1/float64(b))))
	return Training(g)
}

// transformerLayer appends one pre-LN-free Transformer block: fused-QKV
// attention plus a GeLU MLP, both with residual connections. x is (T, H).
func transformerLayer(g *graph.Graph, x graph.NodeID, hidden, ffn, seqLen int, name string) graph.NodeID {
	wqkv := g.AddParameter(name+".wqkv", hidden, 3*hidden)
	qkv := g.AddOp(graph.MatMul, x, wqkv)
	attn := g.AddAttention(qkv, seqLen)
	wo := g.AddParameter(name+".wo", hidden, hidden)
	o := g.AddOp(graph.MatMul, attn, wo)
	x1 := g.AddOp(graph.Add, x, o)

	w1 := g.AddParameter(name+".w1", hidden, ffn)
	h := g.AddOp(graph.GeLU, g.AddOp(graph.MatMul, x1, w1))
	w2 := g.AddParameter(name+".w2", ffn, hidden)
	h2 := g.AddOp(graph.MatMul, h, w2)
	return g.AddOp(graph.Add, x1, h2)
}

// moeLayer appends a GShard-style MoE feed-forward block with the given
// number of experts: gate → dispatch → two batched expert matmuls → combine,
// with a residual connection. x is (T, H).
func moeLayer(g *graph.Graph, x graph.NodeID, hidden, ffn, experts int, name string) graph.NodeID {
	wg := g.AddParameter(name+".wg", hidden, experts)
	gates := g.AddOp(graph.Softmax, g.AddOp(graph.MatMul, x, wg))
	d := g.AddOp(graph.Dispatch, x, gates)
	w1 := g.AddParameter(name+".w1", experts, hidden, ffn)
	e1 := g.AddOp(graph.GeLU, g.AddOp(graph.ExpertMM, d, w1))
	w2 := g.AddParameter(name+".w2", experts, ffn, hidden)
	e2 := g.AddOp(graph.ExpertMM, e1, w2)
	y := g.AddOp(graph.Combine, e2, gates)
	return g.AddOp(graph.Add, x, y)
}

// TransformerConfig parameterizes the Transformer-family builders.
type TransformerConfig struct {
	Layers int
	Hidden int
	FFN    int
	SeqLen int
	Vocab  int // BERT only
	// MoE fields (BERT-MoE only).
	Experts     int
	MoEInterval int // an MoE block replaces the FFN every MoEInterval layers
}

// BERTBase returns the paper's BERT-Base configuration (12×768, seq 128).
// Parameters land at ~109M with a 30522-token tied embedding, matching
// Table 1's 102M up to embedding-accounting differences.
func BERTBase() TransformerConfig {
	return TransformerConfig{Layers: 12, Hidden: 768, FFN: 3072, SeqLen: 128, Vocab: 30522}
}

// BERTMoE returns the paper's BERT-MoE configuration for m devices: MoE
// replaces a feed-forward module every two layers (as in GShard) and the
// expert count scales with the cluster size.
func BERTMoE(devices int) TransformerConfig {
	c := BERTBase()
	c.Experts = devices
	c.MoEInterval = 2
	return c
}

// ViTConfig returns the paper's ViT configuration (~54M parameters:
// depth 8 at hidden 768).
func ViTConfig() TransformerConfig {
	return TransformerConfig{Layers: 8, Hidden: 768, FFN: 3072, SeqLen: 197}
}

// BERT builds the BERT language-model training graph over `tokens` total
// tokens: tied token embedding, cfg.Layers Transformer blocks (with MoE
// blocks every cfg.MoEInterval layers when cfg.Experts > 0), and a tied
// LM head, reduced to a scalar loss.
func BERT(cfg TransformerConfig, tokens int) *graph.Graph {
	g := graph.New()
	ids := g.AddPlaceholder("ids", 0, tokens)
	table := g.AddParameter("embed", cfg.Vocab, cfg.Hidden)
	x := g.AddEmbed(ids, table)
	for l := 0; l < cfg.Layers; l++ {
		if cfg.Experts > 0 && cfg.MoEInterval > 0 && (l+1)%cfg.MoEInterval == 0 {
			// Attention sub-block followed by the MoE feed-forward.
			wqkv := g.AddParameter(fmt.Sprintf("l%d.wqkv", l), cfg.Hidden, 3*cfg.Hidden)
			qkv := g.AddOp(graph.MatMul, x, wqkv)
			attn := g.AddAttention(qkv, cfg.SeqLen)
			wo := g.AddParameter(fmt.Sprintf("l%d.wo", l), cfg.Hidden, cfg.Hidden)
			x = g.AddOp(graph.Add, x, g.AddOp(graph.MatMul, attn, wo))
			x = moeLayer(g, x, cfg.Hidden, cfg.FFN, cfg.Experts, fmt.Sprintf("l%d.moe", l))
		} else {
			x = transformerLayer(g, x, cfg.Hidden, cfg.FFN, cfg.SeqLen, fmt.Sprintf("l%d", l))
		}
	}
	// Tied LM head: logits = x · embedᵀ.
	headW := g.AddOp(graph.Transpose, table)
	logits := g.AddOp(graph.MatMul, x, headW)
	g.SetLoss(g.AddOp(graph.Sum, g.AddScale(logits, 1/float64(tokens))))
	return g
}

// ViT builds the Vision Transformer training graph over `tokens` total
// patch tokens (batch × patches-per-image): linear patch embedding,
// cfg.Layers Transformer blocks, and a classification head.
func ViT(cfg TransformerConfig, tokens, patchDim, classes int) *graph.Graph {
	g := graph.New()
	x := g.AddPlaceholder("patches", 0, tokens, patchDim)
	wemb := g.AddParameter("patch_embed", patchDim, cfg.Hidden)
	h := g.AddOp(graph.MatMul, x, wemb)
	for l := 0; l < cfg.Layers; l++ {
		h = transformerLayer(g, h, cfg.Hidden, cfg.FFN, cfg.SeqLen, fmt.Sprintf("l%d", l))
	}
	whead := g.AddParameter("head", cfg.Hidden, classes)
	logits := g.AddOp(graph.MatMul, h, whead)
	g.SetLoss(g.AddOp(graph.Sum, g.AddScale(logits, 1/float64(tokens))))
	return g
}

// vgg19Channels is the VGG19 convolutional configuration; 0 marks a 2×2
// max-pool.
var vgg19Channels = []int{64, 64, 0, 128, 128, 0, 256, 256, 256, 256, 0, 512, 512, 512, 512, 0, 512, 512, 512, 512, 0}

// VGG19 builds the VGG19 training graph at the given batch size and input
// resolution (the paper upsamples Cifar-10; 224 reproduces the 133M-class
// parameter count of Table 1 with a 10-way classifier).
func VGG19(batch, resolution, classes int) *graph.Graph {
	return vgg19With(vgg19Channels, batch, resolution, classes)
}

// VGG19OneWider builds VGG19 with one mid-stack convolution widened
// (256 → 320 channels): the canonical near-miss resubmission that the
// incremental-synthesis benchmarks and tests plan seeded from the base
// VGG19's cached plan.
func VGG19OneWider(batch, resolution, classes int) *graph.Graph {
	channels := append([]int(nil), vgg19Channels...)
	channels[8] = 320
	return vgg19With(channels, batch, resolution, classes)
}

func vgg19With(channels []int, batch, resolution, classes int) *graph.Graph {
	g := graph.New()
	ch, hw := 3, resolution
	x := g.AddPlaceholder("images", 0, batch, ch*hw*hw)
	h := x
	for i, c := range channels {
		if c == 0 {
			h = g.AddPool(h)
			hw /= 2
			continue
		}
		w := g.AddParameter(fmt.Sprintf("conv%d", i), 9*ch, c)
		flopsPerSample := 2 * float64(hw*hw) * 9 * float64(ch) * float64(c)
		h = g.AddOp(graph.ReLU, g.AddConv(h, w, c*hw*hw, flopsPerSample))
		ch = c
	}
	// Classifier: 512·(res/32)² → 4096 → 4096 → classes.
	dims := []int{512 * (resolution / 32) * (resolution / 32), 4096, 4096, classes}
	for i := 1; i < len(dims); i++ {
		w := g.AddParameter(fmt.Sprintf("fc%d", i), dims[i-1], dims[i])
		h = g.AddOp(graph.MatMul, h, w)
		if i != len(dims)-1 {
			h = g.AddOp(graph.ReLU, h)
		}
	}
	g.SetLoss(g.AddOp(graph.Sum, g.AddScale(h, 1/float64(batch))))
	return g
}

// Training appends the backward pass to a forward graph, panicking on
// builder bugs (all builders produce differentiable graphs).
func Training(g *graph.Graph) *graph.Graph {
	if err := autodiff.Backward(g); err != nil {
		panic(fmt.Sprintf("models: backward failed: %v", err))
	}
	return g
}

// PaperModel names one of the four Table 1 benchmarks.
type PaperModel string

// The four benchmark workloads of Sec. 7.1.
const (
	ModelVGG19    PaperModel = "VGG19"
	ModelViT      PaperModel = "ViT"
	ModelBERTBase PaperModel = "BERT-Base"
	ModelBERTMoE  PaperModel = "BERT-MoE"
)

// AllPaperModels lists the benchmarks in the paper's presentation order.
var AllPaperModels = []PaperModel{ModelVGG19, ModelViT, ModelBERTBase, ModelBERTMoE}

// PerDeviceBatch returns the paper's weak-scaling per-device batch size
// (Sec. 7.1): 32 for BERT-MoE, 64 otherwise.
func PerDeviceBatch(m PaperModel) int {
	if m == ModelBERTMoE {
		return 32
	}
	return 64
}

// Build constructs the full training graph (forward + backward) for a paper
// benchmark at `devices` devices under weak scaling.
func Build(m PaperModel, devices int) *graph.Graph {
	batch := PerDeviceBatch(m) * devices
	switch m {
	case ModelVGG19:
		return Training(VGG19(batch, 224, 10))
	case ModelViT:
		cfg := ViTConfig()
		return Training(ViT(cfg, batch*cfg.SeqLen, 16*16*3, 10))
	case ModelBERTBase:
		cfg := BERTBase()
		return Training(BERT(cfg, batch*cfg.SeqLen))
	case ModelBERTMoE:
		cfg := BERTMoE(devices)
		return Training(BERT(cfg, batch*cfg.SeqLen))
	default:
		panic(fmt.Sprintf("models: unknown model %q", m))
	}
}
