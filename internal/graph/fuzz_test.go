package graph_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"hap/internal/graph"
	"hap/internal/models"
)

// FuzzGraphDecode holds graph.DecodeBytes, which reads the graph of every
// full-body request, to six properties: the count of "op" that presizes its
// node slice is bytes.Count's; no input panics it; on every input
// free of the three spellings it refuses, it and the encoding/json oracle
// (DecodeReference) both reject the input or both accept it as
// reflect.DeepEqual graphs; every input that names a graph or node member
// twice or in another case, or puts null in a known array, is refused; an
// accepted graph's AppendJSON is json.Marshal of its graphJSON; and an
// accepted graph re-encodes to bytes that decode to the same fingerprint —
// the fingerprint is the plan cache's key, so a graph whose key moves across
// a round trip would be planned twice or served another graph's plan.
//
// The committed corpus holds each refused spelling at graph and node level
// (refused-*), each member null (null-*), escaped names and values, an
// unknown member, fractions and exponents, 19-digit and out-of-range
// numbers, short and long pairs, and floats at the writer's format
// boundaries, 1e-6 and 1e21; the seeds add a graph of rank 129.
func FuzzGraphDecode(f *testing.F) {
	tiny := models.TransformerConfig{Layers: 2, Hidden: 8, FFN: 16, SeqLen: 4, Vocab: 16}
	moe := tiny
	moe.Experts, moe.MoEInterval = 2, 2
	segmented := models.Training(models.MLP(8, 4, 6, 3))
	segmented.SegmentOf = make([]int, segmented.NumNodes())
	for i := segmented.NumNodes() / 2; i < segmented.NumNodes(); i++ {
		segmented.SegmentOf[i] = 1
	}
	// A rank past graph.MaxRank, which Validate refuses.
	wide := make([]int, graph.MaxRank+1)
	for i := range wide {
		wide[i] = 1
	}
	rank129 := graph.New()
	rank129.SetLoss(rank129.AddOp(graph.Sum, rank129.AddOp(graph.Mul, rank129.AddPlaceholder("x", 0, wide...), rank129.AddParameter("w", wide...))))
	for _, g := range []*graph.Graph{
		models.Training(models.MLP(8, 4, 3)),
		models.Training(models.BERT(tiny, 8)),
		models.Training(models.BERT(moe, 8)),
		models.Training(models.ViT(tiny, 8, 6, 3)),
		segmented,
		rank129,
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
		if got, want := graph.CountOps(data), bytes.Count(data, []byte(`"op"`)); got != want {
			t.Fatalf(`counted %d "op", bytes.Count %d`, got, want)
		}
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
// answer is encoding/json's (DecodeReference): both an error, or equal
// graphs. Data carrying a spelling the reader refuses must be refused.
func decodeAgreeing(t *testing.T, data []byte) (*graph.Graph, error) {
	t.Helper()
	g, err := graph.DecodeBytes(data)
	if refused(data, graphShape) {
		if err == nil {
			t.Fatal("DecodeBytes accepted a repeated member, a member in another case or a null array element")
		}
		return nil, err
	}
	ref, refErr := graph.DecodeReference(data)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("DecodeBytes err %v, encoding/json err %v", err, refErr)
	}
	if err == nil && !reflect.DeepEqual(g, ref) {
		t.Fatalf("DecodeBytes and encoding/json decode different graphs:\n%v\nvs\n%v", g, ref)
	}
	return g, err
}

// shape is what the reader knows of a document: an object's members, or
// the elements of an array it reads.
type shape struct {
	members map[string]*shape
	elem    *shape
}

var (
	scalar    = &shape{}
	intArray  = &shape{elem: scalar}
	pairArray = &shape{elem: intArray}
	nodeShape = &shape{members: map[string]*shape{
		"op": scalar, "inputs": intArray, "shape": intArray, "name": scalar,
		"scale": scalar, "flops_per_sample": scalar, "batch_dim": scalar,
	}}
	graphShape = &shape{members: map[string]*shape{
		"version": scalar, "nodes": {elem: nodeShape}, "loss": scalar, "params": intArray,
		"grads": pairArray, "forward_count": scalar, "primal_of": pairArray, "segment_of": intArray,
	}}
)

// refused reports whether the JSON value data starts with, read as s,
// names a known member twice or in another case (by encoding/json's
// folding, strings.EqualFold) or holds null in a known array. It walks
// encoding/json's tokens, so it sees what encoding/json's decoder sees.
func refused(data []byte, s *shape) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	tok, err := dec.Token()
	if err != nil {
		return false
	}
	found, _ := walk(dec, tok, s)
	return found
}

// walk reads the value tok starts and reports a refused spelling in it;
// it stops at the first token error.
func walk(dec *json.Decoder, tok json.Token, s *shape) (found bool, err error) {
	if s == nil {
		s = &shape{}
	}
	switch tok {
	case json.Delim('{'):
		seen := map[string]bool{}
		for dec.More() && err == nil {
			if tok, err = dec.Token(); err != nil {
				break
			}
			name := tok.(string)
			sub, known := s.members[name]
			found = found || seen[name]
			seen[name] = known
			for k := range s.members {
				found = found || !known && strings.EqualFold(name, k)
			}
			if tok, err = dec.Token(); err == nil {
				var f bool
				f, err = walk(dec, tok, sub)
				found = found || f
			}
		}
	case json.Delim('['):
		for dec.More() && err == nil {
			if tok, err = dec.Token(); err == nil {
				found = found || s.elem != nil && tok == nil
				var f bool
				f, err = walk(dec, tok, s.elem)
				found = found || f
			}
		}
	default:
		return false, nil
	}
	if err == nil {
		_, err = dec.Token()
	}
	return found, err
}
