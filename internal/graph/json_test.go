package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hap/internal/tensor"
)

// buildTraining returns an MLP with a hand-rolled backward pass, exercising
// every bookkeeping field the wire format must carry.
func buildTraining(t *testing.T) *Graph {
	t.Helper()
	g := New()
	x := g.AddPlaceholder("x", 0, 8, 4)
	w := g.AddParameter("w", 4, 3)
	y := g.AddOp(MatMul, x, w)
	s := g.AddScale(y, 0.5)
	g.SetLoss(g.AddOp(Sum, s))
	g.ForwardCount = g.NumNodes()
	ones := g.AddOnes()
	gy := g.AddExpand(ones, g.Node(y).Shape)
	xt := g.AddOp(Transpose, x)
	gw := g.AddOp(MatMul, xt, gy)
	g.Grads[w] = gw
	g.PrimalOf[gw] = w
	g.PrimalOf[xt] = x
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

func encode(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

func TestGraphJSONRoundTrip(t *testing.T) {
	g := buildTraining(t)
	g.SegmentOf = []int{0, 0, 0, 1, 1, 1, 1, 1, 1}
	q, err := Decode(bytes.NewReader(encode(t, g)))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(g.Nodes, q.Nodes) {
		t.Errorf("round-trip changed nodes:\n%s\nvs\n%s", g, q)
	}
	if q.Loss != g.Loss || !reflect.DeepEqual(q.Params, g.Params) {
		t.Errorf("loss/params drifted: %v/%v vs %v/%v", q.Loss, q.Params, g.Loss, g.Params)
	}
	if !reflect.DeepEqual(q.Grads, g.Grads) || !reflect.DeepEqual(q.PrimalOf, g.PrimalOf) {
		t.Error("gradient bookkeeping drifted")
	}
	if q.ForwardCount != g.ForwardCount || !reflect.DeepEqual(q.SegmentOf, g.SegmentOf) {
		t.Error("forward count or segment assignment drifted")
	}
	if Fingerprint(q) != Fingerprint(g) {
		t.Error("round-trip changed the fingerprint")
	}
}

func TestGraphJSONDeterministic(t *testing.T) {
	// Map-valued fields must not leak iteration order into the encoding.
	g := buildTraining(t)
	a := encode(t, g)
	for i := 0; i < 20; i++ {
		if b := encode(t, g); !bytes.Equal(a, b) {
			t.Fatal("Encode is not byte-deterministic")
		}
	}
}

func TestGraphJSONUsesStableNames(t *testing.T) {
	s := string(encode(t, buildTraining(t)))
	for _, want := range []string{`"op": "matmul"`, `"op": "placeholder"`, `"op": "transpose"`} {
		if !strings.Contains(s, want) {
			t.Errorf("encoded JSON lacks %s:\n%s", want, s)
		}
	}
}

func TestGraphJSONRejections(t *testing.T) {
	enc := string(encode(t, buildTraining(t)))
	cases := []struct {
		name    string
		mutate  func(string) string
		wantSub string
	}{
		{"not json", func(s string) string { return "][" }, "decode"},
		{"bad version", func(s string) string { return strings.Replace(s, `"version": 1`, `"version": 99`, 1) }, "version"},
		{"unknown op", func(s string) string { return strings.Replace(s, `"op": "matmul"`, `"op": "quantum_matmul"`, 1) }, "unknown op"},
		{"input out of range", func(s string) string { return strings.Replace(s, `"inputs": [`, `"inputs": [400, `, 1) }, "input"},
		{"loss out of range", func(s string) string { return strings.Replace(s, `"loss": 4`, `"loss": 44`, 1) }, "loss"},
		{"param out of range", func(s string) string { return strings.Replace(s, `"params": [`, `"params": [-3, `, 1) }, "parameter"},
		{"grad out of range", func(s string) string { return strings.Replace(s, `"grads": [`, `"grads": [[1, 99], `, 1) }, "gradient"},
		{"negative dimension", func(s string) string { return strings.Replace(s, `"shape": [`, `"shape": [-8, `, 1) }, "dimension"},
		{"bad forward count", func(s string) string { return strings.Replace(s, `"forward_count": 5`, `"forward_count": 50`, 1) }, "forward_count"},
		{"bad segment length", func(s string) string { return strings.Replace(s, `"loss": 4`, `"loss": 4, "segment_of": [0]`, 1) }, "SegmentOf"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(enc)
			if mutated == enc {
				t.Fatal("mutation did not change the encoding (test is stale)")
			}
			_, err := Decode(strings.NewReader(mutated))
			if err == nil {
				t.Fatal("Decode accepted bad input")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestGraphJSONRejectsInconsistentShapes covers the wire-format attack
// surface the daemon is exposed to: declared shapes that disagree with what
// the op produces (or inputs that are mutually inconsistent) panic deep in
// the synthesis pipeline if they get through, so Decode must refuse them.
func TestGraphJSONRejectsInconsistentShapes(t *testing.T) {
	cases := []struct {
		name, body, wantSub string
	}{
		{
			"output shape disagrees with op",
			`{"version":1,"nodes":[{"op":"placeholder","shape":[4,4],"batch_dim":0},{"op":"softmax","inputs":[0],"shape":[],"batch_dim":-1}],"loss":1}`,
			"softmax",
		},
		{
			"matmul inner dims disagree",
			`{"version":1,"nodes":[{"op":"placeholder","shape":[4,3],"batch_dim":0},{"op":"parameter","shape":[5,2],"batch_dim":-1},{"op":"matmul","inputs":[0,1],"shape":[4,2],"batch_dim":0}],"loss":-1}`,
			"inconsistent input shapes",
		},
		{
			"add operands disagree",
			`{"version":1,"nodes":[{"op":"placeholder","shape":[4,3],"batch_dim":0},{"op":"placeholder","shape":[3,4],"batch_dim":0},{"op":"add","inputs":[0,1],"shape":[4,3],"batch_dim":0}],"loss":-1}`,
			"inconsistent input shapes",
		},
		{
			"scalar softmax",
			`{"version":1,"nodes":[{"op":"placeholder","shape":[],"batch_dim":-1},{"op":"softmax","inputs":[0],"shape":[],"batch_dim":-1}],"loss":-1}`,
			"softmax",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(strings.NewReader(tc.body))
			if err == nil {
				t.Fatal("Decode accepted a shape-inconsistent graph")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestDecodeRefusesRankAboveMax: a wire graph with a rank-129 tensor is an
// error at decode, where it once reached the planner and panicked it; rank
// 128 decodes.
func TestDecodeRefusesRankAboveMax(t *testing.T) {
	for _, rank := range []int{MaxRank, MaxRank + 1} {
		var buf bytes.Buffer
		if err := rankGraph(rank).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := Decode(&buf)
		if rank == MaxRank && err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
		if want := "graph: decode: graph: node 0 (placeholder) has rank 129, above 128"; rank > MaxRank && (err == nil || err.Error() != want) {
			t.Errorf("rank %d: error %v, want %q", rank, err, want)
		}
	}
}

func TestGraphJSONOmittedFieldsUseSentinels(t *testing.T) {
	// The in-memory "none" sentinel is -1 for both the loss designation and
	// the batch axis; omitted fields must not silently mean node/axis 0.
	g, err := Decode(strings.NewReader(`{"version":1,"nodes":[{"op":"parameter","shape":[2,2]}]}`))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if g.Loss != -1 {
		t.Errorf("omitted loss decoded as %d, want -1", g.Loss)
	}
	if bd := g.Node(0).BatchDim; bd != -1 {
		t.Errorf("omitted batch_dim decoded as %d, want -1", bd)
	}
}

func TestFingerprintIgnoresLabels(t *testing.T) {
	a := buildTraining(t)
	b := buildTraining(t)
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("identical graphs have different fingerprints")
	}
	for i := range b.Nodes {
		b.Nodes[i].Name = "renamed"
	}
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("node names changed the fingerprint")
	}
}

func TestFingerprintCoversSemantics(t *testing.T) {
	base := Fingerprint(buildTraining(t))
	perturb := []struct {
		name string
		f    func(*Graph)
	}{
		{"shape", func(g *Graph) { g.Nodes[0].Shape = tensor.Shape{16, 4} }},
		{"op kind", func(g *Graph) { g.Nodes[4].Kind = Softmax }},
		{"edge", func(g *Graph) { g.Nodes[3].Inputs[0] = 0 }},
		{"scale factor", func(g *Graph) { g.Nodes[3].ScaleFactor = 0.25 }},
		{"flops override", func(g *Graph) { g.Nodes[2].FlopsPerSample = 7 }},
		{"batch axis", func(g *Graph) { g.Nodes[0].BatchDim = 1 }},
		{"loss", func(g *Graph) { g.Loss = 3 }},
		{"gradient", func(g *Graph) { g.Grads[1] = 7 }},
		{"non-param gradient", func(g *Graph) { g.Grads[0] = 7 }},
		{"extra param", func(g *Graph) { g.Params = append(g.Params, 0) }},
		{"segments", func(g *Graph) { g.SegmentOf = []int{0, 0, 0, 0, 1, 1, 1, 1, 1} }},
	}
	for _, p := range perturb {
		t.Run(p.name, func(t *testing.T) {
			g := buildTraining(t)
			p.f(g)
			if Fingerprint(g) == base {
				t.Errorf("perturbing %s did not change the fingerprint", p.name)
			}
		})
	}
}

// countOps is bytes.Count of "op" on random bodies over the bytes the
// pattern is made of, where matches abut and overlap (`"op"op"` holds one),
// and on every prefix and suffix of a training graph's body.
func TestCountOpsMatchesBytesCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []byte(`"opx`)
	for i := 0; i < 20000; i++ {
		b := make([]byte, rng.Intn(24))
		for k := range b {
			b[k] = alphabet[rng.Intn(len(alphabet))]
		}
		if got, want := countOps(b), bytes.Count(b, []byte(`"op"`)); got != want {
			t.Fatalf("%q: counted %d, bytes.Count %d", b, got, want)
		}
	}
	var buf bytes.Buffer
	if err := buildTraining(t).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	for k := 0; k <= len(body); k++ {
		for _, b := range [][]byte{body[:k], body[k:]} {
			if got, want := countOps(b), bytes.Count(b, []byte(`"op"`)); got != want {
				t.Fatalf("%q: counted %d, bytes.Count %d", b, got, want)
			}
		}
	}
}

// The arity table covers every op kind, as the map it replaced did.
func TestArityCoversEveryKind(t *testing.T) {
	if len(arity) != len(opNames) {
		t.Errorf("arity covers %d kinds, there are %d", len(arity), len(opNames))
	}
}
