package graph_test

import (
	"bytes"
	"reflect"
	"testing"

	"hap/internal/graph"
	"hap/internal/models"
)

// FuzzGraphDecode holds graph.DecodeBytes, which parses the graph of every
// full-body request, to four properties: no input panics it; it and the
// encoding/json reader (DecodeReference) both reject an input or both accept
// it as reflect.DeepEqual graphs, so the one-pass reader changes no answer;
// an accepted graph's AppendJSON is json.Marshal of its graphJSON; and an
// accepted graph re-encodes to bytes that decode to the same fingerprint —
// the fingerprint is the plan cache's key, so a graph whose key moves across
// a round trip would be planned twice or served another graph's plan.
//
// The committed corpus holds one input per fallback trigger of the one-pass
// reader (a key spelled otherwise, a repeated key, an escaped name, a
// fraction in an int field, a null shape, an unknown field) and floats at
// the writer's format boundaries, 1e-6 and 1e21.
func FuzzGraphDecode(f *testing.F) {
	tiny := models.TransformerConfig{Layers: 2, Hidden: 8, FFN: 16, SeqLen: 4, Vocab: 16}
	moe := tiny
	moe.Experts, moe.MoEInterval = 2, 2
	segmented := models.Training(models.MLP(8, 4, 6, 3))
	segmented.SegmentOf = make([]int, segmented.NumNodes())
	for i := segmented.NumNodes() / 2; i < segmented.NumNodes(); i++ {
		segmented.SegmentOf[i] = 1
	}
	for _, g := range []*graph.Graph{
		models.Training(models.MLP(8, 4, 3)),
		models.Training(models.BERT(tiny, 8)),
		models.Training(models.BERT(moe, 8)),
		models.Training(models.ViT(tiny, 8, 6, 3)),
		segmented,
	} {
		var buf bytes.Buffer
		if err := g.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, body := range []string{
		// loss and batch_dim omitted: both mean "none" (-1), not node/axis 0
		`{"version":1,"nodes":[{"op":"parameter","shape":[2,2]}]}`,
		`{"version":1,"nodes":[{"op":"placeholder","shape":[-4,3],"batch_dim":0}],"loss":-1}`,
		`{"version":1,"nodes":[{"op":"placeholder","shape":[4],"batch_dim":-7}],"loss":-1}`,
		`{"version":1,"nodes":[{"op":"relu","inputs":[3],"shape":[2],"batch_dim":-1}],"loss":-1}`,
		`{"version":1,"nodes":[{"op":"relu","inputs":[-1],"shape":[2],"batch_dim":-1}],"loss":0}`,
		`{"version":1,"nodes":[{"op":"placeholder","shape":[4,3],"batch_dim":0},{"op":"parameter","shape":[5,2]},{"op":"matmul","inputs":[0,1],"shape":[4,2],"batch_dim":0}],"loss":-1}`,
		`{"version":1,"nodes":[{"op":"placeholder","shape":[4,4],"batch_dim":0},{"op":"softmax","inputs":[0],"shape":[],"batch_dim":-1}],"loss":1}`,
		`{"version":1,"nodes":[{"op":"parameter","shape":[2,2]},{"op":"sum","inputs":[0],"shape":[]}],"loss":1,"segment_of":[0]}`,
		`{"version":1,"nodes":[{"op":"parameter","shape":[2,2]},{"op":"sum","inputs":[0],"shape":[]}],"loss":1,"segment_of":[0,-1]}`,
		`{"version":1,"nodes":[{"op":"parameter","shape":[2]}],"params":[0,0],"grads":[[0,0],[0,0]],"primal_of":[[0,0]],"forward_count":1}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := decodeAgreeing(t, data)
		if err != nil {
			return
		}
		compact, _, err := graph.WireOracle(g)
		if err != nil {
			t.Fatalf("json.Marshal of an accepted graph: %v", err)
		}
		if got, err := g.AppendJSON(nil); err != nil || !bytes.Equal(got, compact) {
			t.Fatalf("AppendJSON (err %v) differs from json.Marshal at byte %d", err, firstDiff(got, compact))
		}
		var buf bytes.Buffer
		if err := g.Encode(&buf); err != nil {
			t.Fatalf("Encode of an accepted graph: %v", err)
		}
		again, err := graph.Decode(&buf)
		if err != nil {
			t.Fatalf("the re-encoded graph does not decode: %v", err)
		}
		if got, want := graph.Fingerprint(again), graph.Fingerprint(g); got != want {
			t.Fatalf("fingerprint %s after the round trip, %s before", got, want)
		}
	})
}

// decodeAgreeing decodes data with DecodeBytes and fails t unless the
// encoding/json reader gives the same answer: both an error, or equal
// graphs.
func decodeAgreeing(t *testing.T, data []byte) (*graph.Graph, error) {
	t.Helper()
	g, err := graph.DecodeBytes(data)
	ref, refErr := graph.DecodeReference(data)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("DecodeBytes err %v, encoding/json err %v", err, refErr)
	}
	if err == nil && !reflect.DeepEqual(g, ref) {
		t.Fatalf("DecodeBytes and encoding/json decode different graphs:\n%v\nvs\n%v", g, ref)
	}
	return g, err
}
