package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"hap/internal/cluster"
	"hap/internal/graph"
	"hap/internal/models"
)

// input is one (model, cluster, options) triple of the benchmark, built from
// the repository's public model and cluster builders. variant(v) is the
// near-miss resubmission "a head changed": the same model with its
// classifier width or vocabulary nudged by v, which the daemon's similarity
// index seeds from the base's cached plan.
type input struct {
	name     string
	build    func() *graph.Graph
	variant  func(v int) *graph.Graph
	cluster  *cluster.Cluster
	segments int
}

// pin is the manifest entry of an input: what its builders produced when the
// benchmark was sized. A run refuses to start when a builder drifted, because
// its numbers would no longer be comparable with earlier runs.
type pin struct {
	nodes         int // graph nodes, forward + backward
	params        int // parameter count
	bodyBytes     int // POST /v1/synthesize request body
	variantParams int // parameter count of variant(1)
}

// request mirrors the wire body of POST /v1/synthesize (client.request and
// serve.Request are unexported or internal to their layers; the shape is the
// wire contract).
type request struct {
	Graph   json.RawMessage `json:"graph"`
	Cluster json.RawMessage `json:"cluster"`
	Options requestOptions  `json:"options"`
}

type requestOptions struct {
	Segments int `json:"segments,omitempty"`
}

// encodeRequest builds the request body the client sends for (g, c).
func encodeRequest(g *graph.Graph, c *cluster.Cluster, segments int) (body, graphJSON, clusterJSON []byte, err error) {
	var gb, cb bytes.Buffer
	if err = g.Encode(&gb); err != nil {
		return nil, nil, nil, err
	}
	if err = c.Encode(&cb); err != nil {
		return nil, nil, nil, err
	}
	body, err = json.Marshal(request{Graph: gb.Bytes(), Cluster: cb.Bytes(), Options: requestOptions{Segments: segments}})
	return body, gb.Bytes(), cb.Bytes(), err
}

// measure computes the manifest entry of the input as built now.
func (in *input) measure() (pin, error) {
	g := in.build()
	body, _, _, err := encodeRequest(g, in.cluster, in.segments)
	if err != nil {
		return pin{}, err
	}
	return pin{
		nodes:         g.NumNodes(),
		params:        g.ParameterCount(),
		bodyBytes:     len(body),
		variantParams: in.variant(1).ParameterCount(),
	}, nil
}

// checkManifest refuses inputs whose builders drifted from their pins.
func checkManifest(ins []*input) error {
	for _, in := range ins {
		got, err := in.measure()
		if err != nil {
			return fmt.Errorf("manifest: %s: %w", in.name, err)
		}
		if want := manifest[in.name]; got != want {
			return fmt.Errorf("manifest: input %s drifted: built %+v, pinned %+v (re-pin in bench/inputs.go only in a change that re-measures the baseline)", in.name, got, want)
		}
	}
	return nil
}

// manifest pins every input (see pin).
var manifest = map[string]pin{
	"vgg19/het8":         {nodes: 133, params: 139597504, bodyBytes: 12177, variantParams: 139601600},
	"vgg19/hom4":         {nodes: 133, params: 139597504, bodyBytes: 11879, variantParams: 139601600},
	"vit/hom4":           {nodes: 272, params: 57220608, bodyBytes: 21560, variantParams: 57221376},
	"bert6/a100p100":     {nodes: 209, params: 65908224, bodyBytes: 16488, variantParams: 65914368},
	"bert12/hom4":        {nodes: 401, params: 108375552, bodyBytes: 31473, variantParams: 108381696},
	"moe4/het8":          {nodes: 165, params: 100675584, bodyBytes: 13856, variantParams: 100681728},
	"mlp/pg32/seg4":      {nodes: 42, params: 41953280, bodyBytes: 5724, variantParams: 41954304},
	"mlp/pg32/seg1":      {nodes: 42, params: 41953280, bodyBytes: 5724, variantParams: 41954304},
	"bert4/pg16/seg4":    {nodes: 145, params: 51752448, bodyBytes: 12533, variantParams: 51758592},
	"vgg19r64/pg16/seg4": {nodes: 133, params: 45225664, bodyBytes: 12741, variantParams: 45229760},
}

// perGPU is the per-GPU heterogeneous cluster of the balance workload: four
// machines (V100, P100, A100, P100) with n GPUs each, one virtual device per
// GPU, so the balancer's LP has 4n ratio columns per segment.
func perGPU(n int) *cluster.Cluster {
	return cluster.FromGPUs(cluster.DefaultNetwork(),
		cluster.MachineSpec{Type: cluster.V100, GPUs: n}, cluster.MachineSpec{Type: cluster.P100, GPUs: n},
		cluster.MachineSpec{Type: cluster.A100, GPUs: n}, cluster.MachineSpec{Type: cluster.P100, GPUs: n})
}

// Model builders. Batches follow the paper's weak scaling (per-device batch
// × GPUs), like internal/experiments does.

func vgg19(c *cluster.Cluster, resolution int) *input {
	batch := models.PerDeviceBatch(models.ModelVGG19) * c.TotalGPUs()
	mk := func(v int) *graph.Graph { return models.Training(models.VGG19(batch, resolution, 10+v)) }
	return &input{build: func() *graph.Graph { return mk(0) }, variant: mk, cluster: c}
}

func vit(c *cluster.Cluster) *input {
	cfg := models.ViTConfig()
	tokens := models.PerDeviceBatch(models.ModelViT) * c.TotalGPUs() * cfg.SeqLen
	mk := func(v int) *graph.Graph { return models.Training(models.ViT(cfg, tokens, 16*16*3, 10+v)) }
	return &input{build: func() *graph.Graph { return mk(0) }, variant: mk, cluster: c}
}

// bert builds BERT-Base truncated to the given number of layers (12 = the
// paper's model); experts > 0 makes it the BERT-MoE of Table 1 with a
// reduced vocabulary.
func bert(c *cluster.Cluster, layers, experts int) *input {
	cfg, m := models.BERTBase(), models.ModelBERTBase
	if experts > 0 {
		cfg, m = models.BERTMoE(experts), models.ModelBERTMoE
		cfg.Vocab = 8192
	}
	cfg.Layers = layers
	tokens := models.PerDeviceBatch(m) * c.TotalGPUs() * cfg.SeqLen
	mk := func(v int) *graph.Graph {
		vc := cfg
		vc.Vocab += 8 * v
		return models.Training(models.BERT(vc, tokens))
	}
	return &input{build: func() *graph.Graph { return mk(0) }, variant: mk, cluster: c}
}

func mlp(c *cluster.Cluster, segments int, widths ...int) *input {
	batch := 64 * c.TotalGPUs()
	mk := func(v int) *graph.Graph {
		w := append([]int(nil), widths...)
		w[len(w)-1] += v
		return models.Training(models.MLP(batch, w...))
	}
	return &input{build: func() *graph.Graph { return mk(0) }, variant: mk, cluster: c, segments: segments}
}

func named(name string, in *input) *input {
	in.name = name
	return in
}

func withSegments(n int, in *input) *input {
	in.segments = n
	return in
}

// workload is one named set of inputs and the way calls are made on them.
type workload struct {
	name string
	why  string
	// inputs are planned directly (library path) or are the cached bodies
	// of the daemon (serve path).
	inputs func() []*input
	// roundsPerSecond sizes the timed section: it runs
	// round(seconds × roundsPerSecond) whole rounds, so the work is fixed by
	// -seconds and never by the speed of the machine. Calibrated so that
	// -seconds is roughly the timed section's wall time on the 2-vCPU
	// reference box.
	roundsPerSecond float64
	serve           *serveSpec
}

// serveSpec describes the daemon workloads.
type serveSpec struct {
	// cacheEntries is serve.Config.MaxCacheEntries (0 = the daemon default).
	cacheEntries int
	// variants > 0 makes the workload a churn: that many times per round,
	// for every base, one request for the base (a hit) then one for a
	// variant of it never sent before (a miss).
	variants int
}

var (
	het8  = cluster.PaperHeterogeneous(1) // 2 V100 + 6 P100 machines, 1 GPU each
	hom4  = cluster.PaperHomogeneous(2)   // 4 P100 machines, 2 GPUs each
	a1p1  = cluster.PaperA100P100()       // 2 A100 + 2 P100, per GPU
	pg16  = perGPU(4)
	pg32  = perGPU(8)
	mlpWs = []int{1024, 4096, 4096, 4096, 1024, 10}
)

func vgg19Het8() *input { return named("vgg19/het8", vgg19(het8, 224)) }
func vgg19Hom4() *input { return named("vgg19/hom4", vgg19(hom4, 224)) }
func vitHom4() *input   { return named("vit/hom4", vit(hom4)) }
func bertHom4() *input  { return named("bert12/hom4", bert(hom4, 12, 0)) }
func moe4Het8() *input  { return named("moe4/het8", bert(het8, 4, 8)) }

var workloads = []*workload{
	{
		name: "plan_cold",
		why:  "library path on the paper's models: beam search is most of every call, so synth does the work and balance almost none",
		inputs: func() []*input {
			return []*input{
				vgg19Het8(), vgg19Hom4(), vitHom4(),
				named("bert6/a100p100", bert(a1p1, 6, 0)),
				moe4Het8(),
			}
		},
		roundsPerSecond: 0.55,
	},
	{
		name: "plan_balance",
		why:  "per-GPU clusters with 4 segments: the LP grows with devices x segments, so balance/lp and the Q-B loop do most of the work",
		inputs: func() []*input {
			return []*input{
				named("mlp/pg32/seg4", mlp(pg32, 4, mlpWs...)),
				named("mlp/pg32/seg1", mlp(pg32, 1, mlpWs...)),
				named("bert4/pg16/seg4", withSegments(4, bert(pg16, 4, 0))),
				named("vgg19r64/pg16/seg4", withSegments(4, vgg19(pg16, 64))),
			}
		},
		roundsPerSecond: 0.67,
	},
	{
		name: "serve_warm",
		why:  "every request hits the daemon's cache, as full fetch and as 304 revalidation: decode, fingerprint, lookup and transport only",
		inputs: func() []*input {
			return []*input{vgg19Het8(), vgg19Hom4(), vitHom4(), bertHom4(), moe4Het8()}
		},
		roundsPerSecond: 35,
		serve:           &serveSpec{},
	},
	{
		name: "serve_churn",
		why:  "a small cache under near-miss resubmissions: store writes, evictions, similarity lookup and seeded search beside hits",
		inputs: func() []*input {
			return []*input{vgg19Het8(), vitHom4(), bertHom4()}
		},
		roundsPerSecond: 1.35,
		serve:           &serveSpec{cacheEntries: 12, variants: 4},
	},
}

// smokeInput is the one tiny input every workload runs in -smoke mode. Only
// the library path asks for segments: the client adopts a segmented plan's
// assignment onto the caller's graph, so the same graph value sent again
// encodes differently and misses the cache once more.
func smokeInput(segmented bool) *input {
	in := named("smoke-mlp/a100p100", mlp(a1p1, 0, 64, 128, 64, 10))
	if segmented {
		in.segments = 2
	}
	return in
}

// probe is the speed probe that tracks the workload's call path.
func (w *workload) probe() probeKind {
	if w.serve != nil {
		return memJSONProbe
	}
	return memProbe
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
