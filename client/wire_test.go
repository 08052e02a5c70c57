package client

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"hap"
	"hap/internal/graph"
	"hap/internal/models"
	"hap/internal/serve"
)

// request is the wire body as the client built it before requestBody
// appended it: the oracle of TestGraphWireBytes.
type request struct {
	Graph   json.RawMessage `json:"graph"`
	Cluster json.RawMessage `json:"cluster"`
	Options Options         `json:"options"`
}

func marshalRequest(t *testing.T, g *hap.Graph, cl *hap.Cluster, opt Options) []byte {
	t.Helper()
	var gb, cb bytes.Buffer
	if err := g.Encode(&gb); err != nil {
		t.Fatal(err)
	}
	if err := cl.Encode(&cb); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(request{Graph: gb.Bytes(), Cluster: cb.Bytes(), Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// bert12 is the benchmark's bert12/hom4 graph: BERT-Base, 12 layers, the
// paper's per-device batch on four GPUs.
func bert12() *hap.Graph {
	cfg := models.BERTBase()
	return models.Training(models.BERT(cfg, models.PerDeviceBatch(models.ModelBERTBase)*4*cfg.SeqLen))
}

// TestGraphWireBytes holds requestBody to the body json.Marshal built from
// the indented graph and cluster encodings, on the paper's models, a
// segmented MLP and a cluster whose device names need HTML-safe escaping,
// so the request bytes and the benchmark's body sizes stay where they
// were. A NaN scale still fails Synthesize with an encoding error, and
// no full body is sent. (internal/graph's TestGraphWireBytes holds Encode
// and AppendJSON to encoding/json.)
func TestGraphWireBytes(t *testing.T) {
	moe := models.BERTMoE(8)
	moe.Layers, moe.Vocab = 4, 8192
	segmented := models.Training(models.MLP(256, 1024, 1024, 1024, 10))
	segmented.SegmentOf = make([]int, segmented.NumNodes())
	for i := segmented.NumNodes() / 2; i < segmented.NumNodes(); i++ {
		segmented.SegmentOf[i] = 1
	}
	graphs := map[string]*hap.Graph{
		"MLP":           models.Training(models.MLP(64, 512, 256, 10)),
		"VGG19":         models.Training(models.VGG19(256, 224, 10)),
		"ViT":           models.Training(models.ViT(models.ViTConfig(), 64*197, 16*16*3, 10)),
		"BERT":          bert12(),
		"BERT-MoE":      models.Training(models.BERT(moe, 64*moe.SeqLen)),
		"segmented MLP": segmented,
	}
	named := testCluster()
	named.Devices[0].Name = "rack<1>&gpu "
	for name, g := range graphs {
		for _, cl := range []*hap.Cluster{testCluster(), named} {
			for _, opt := range []Options{{}, {Segments: 2}, {Segments: -1}} {
				got, err := requestBody(g, cl, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if want := marshalRequest(t, g, cl, opt); !bytes.Equal(got, want) {
					t.Errorf("%s, %+v: requestBody differs from json.Marshal (%d vs %d bytes)", name, opt, len(got), len(want))
				}
			}
		}
	}

	_, url, log := newObservedServer(t, serve.Config{})
	g := testGraph(t)
	for i := range g.Nodes {
		if g.Nodes[i].Kind == graph.Scale {
			g.Nodes[i].ScaleFactor = math.NaN()
		}
	}
	_, err := New(url).Synthesize(context.Background(), g, testCluster(), Options{})
	if err == nil || !strings.Contains(err.Error(), "encoding graph") {
		t.Fatalf("Synthesize of a NaN scale: %v, want an encoding error", err)
	}
	if got := log(); len(got) != 1 || !got[0].keyOnly {
		t.Errorf("sent %+v, want only the key-only request", got)
	}
}

// TestGraphDecodeAllocationPin pins the allocations of the two JSON steps a
// miss pays on BERT-12 (401 nodes): the client's body build, and the
// daemon's graph.DecodeBytes of the compact graph (the one-pass reader,
// then the shared checks). Each fails past its measured count plus 25 %
// (measured with go1.24). Through encoding/json they were 1 041 and 3 211;
// while the shape check built a shape per inferable node to compare and
// drop, DecodeBytes made 378.
func TestGraphDecodeAllocationPin(t *testing.T) {
	const (
		bodyAllocs   = 15
		decodeAllocs = 55
	)
	g, cl := bert12(), testCluster()
	var body []byte
	got := testing.AllocsPerRun(20, func() {
		var err error
		if body, err = requestBody(g, cl, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("body build: %.0f allocations (%d bytes)", got, len(body))
	// The race detector drops a quarter of sync.Pool's Puts at random, and
	// the cluster's encoding and compaction draw encoding/json's state from
	// pools, so the body build's count only holds without it.
	if got > bodyAllocs*5/4 && !raceEnabled {
		t.Errorf("body build: %.0f allocations, pin %d + 25 %%", got, bodyAllocs)
	}
	compact, err := g.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	got = testing.AllocsPerRun(20, func() {
		if _, err := graph.DecodeBytes(compact); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("DecodeBytes: %.0f allocations", got)
	if got > decodeAllocs*5/4 {
		t.Errorf("DecodeBytes: %.0f allocations, pin %d + 25 %%", got, decodeAllocs)
	}
}
