package dist

import (
	"bytes"
	"strings"
	"testing"

	"hap/internal/collective"
	"hap/internal/graph"
)

// binaryTestProgram builds a small but representative program: leaf loaders
// (replicated and sharded), scaled and replicated computations, and three
// collective kinds with dims.
func binaryTestProgram(t *testing.T) *Program {
	t.Helper()
	g := graph.New()
	x := g.AddPlaceholder("x", 0, 8, 4)
	w := g.AddParameter("w", 4, 4)
	y := g.AddOp(graph.MatMul, x, w)
	s := g.AddOp(graph.ReLU, y)
	g.SetLoss(g.AddOp(graph.Sum, s))
	p := &Program{Graph: g}
	p.Instrs = append(p.Instrs,
		Instruction{Ref: x, Op: graph.Placeholder, ShardDim: 0},
		Instruction{Ref: w, Op: graph.Parameter, ShardDim: -1},
		Instruction{Ref: y, Op: graph.MatMul, ShardDim: -1, FlopsScaled: true},
		Comm(y, collective.PaddedAllGather, 0, 0),
		Instruction{Ref: s, Op: graph.ReLU, ShardDim: -1},
		Comm(s, collective.AllToAll, 0, 1),
		Instruction{Ref: g.Loss, Op: graph.Sum, ShardDim: -1, FlopsScaled: true},
		Comm(g.Loss, collective.AllReduce, 0, 0),
	)
	if err := p.Validate(); err != nil {
		t.Fatalf("test program invalid: %v", err)
	}
	return p
}

func TestBinaryRoundTrip(t *testing.T) {
	p := binaryTestProgram(t)
	var buf bytes.Buffer
	if err := p.EncodeBinary(&buf); err != nil {
		t.Fatalf("EncodeBinary: %v", err)
	}
	back, err := DecodeBinary(bytes.NewReader(buf.Bytes()), p.Graph)
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	if back.String() != p.String() {
		t.Errorf("round trip changed the program:\n%s\nvs\n%s", back, p)
	}
	if back.Graph != p.Graph {
		t.Error("decoded program not bound to the provided graph")
	}
	if len(back.Instrs) != len(p.Instrs) {
		t.Fatalf("round trip: %d instrs, want %d", len(back.Instrs), len(p.Instrs))
	}
	for i := range p.Instrs {
		a, b := p.Instrs[i], back.Instrs[i]
		if a.Ref != b.Ref || a.IsComm != b.IsComm || a.Op != b.Op || a.Coll != b.Coll ||
			a.ShardDim != b.ShardDim || a.FlopsScaled != b.FlopsScaled || a.Dim != b.Dim || a.Dim2 != b.Dim2 {
			t.Errorf("instr %d differs: %+v vs %+v", i, a, b)
		}
	}
}

// The binary form decodes to the program it encodes, and it is the compact
// one: model-scale plans shrink by an order of magnitude against the JSON
// rendering (Encode), and even this toy program must be several times
// smaller.
func TestBinaryAgreesWithJSON(t *testing.T) {
	p := binaryTestProgram(t)
	var jb, bb bytes.Buffer
	if err := p.Encode(&jb); err != nil {
		t.Fatal(err)
	}
	if err := p.EncodeBinary(&bb); err != nil {
		t.Fatal(err)
	}
	fromBin, err := DecodeBinary(bytes.NewReader(bb.Bytes()), p.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if fromBin.String() != p.String() {
		t.Errorf("binary decode differs from the program:\n%s\nvs\n%s", fromBin, p)
	}
	if bb.Len()*4 > jb.Len() {
		t.Errorf("binary form is %d bytes, JSON %d — expected at least 4x smaller", bb.Len(), jb.Len())
	}
}

func TestBinaryRejectsCorruptInput(t *testing.T) {
	p := binaryTestProgram(t)
	var buf bytes.Buffer
	if err := p.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("NOPE"), raw[4:]...),
		"bad version": append(append([]byte{}, raw[:4]...), append([]byte{99}, raw[5:]...)...),
		"truncated":   raw[:len(raw)/2],
	}
	for name, in := range cases {
		if _, err := DecodeBinary(bytes.NewReader(in), p.Graph); err == nil {
			t.Errorf("%s: decode succeeded on corrupt input", name)
		}
	}

	// Binding to a structurally different graph must fail on the fingerprint.
	g2 := graph.New()
	x := g2.AddPlaceholder("x", 0, 8, 4)
	w := g2.AddParameter("w", 4, 4)
	y := g2.AddOp(graph.MatMul, x, w)
	s := g2.AddOp(graph.ReLU, y)
	g2.SetLoss(g2.AddOp(graph.Sum, g2.AddScale(s, 0.5))) // extra node
	if _, err := DecodeBinary(bytes.NewReader(raw), g2); err == nil ||
		!strings.Contains(err.Error(), "node") && !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("decode against a different graph: err = %v, want a binding failure", err)
	}
}

// encodeBinary returns p's EncodeBinary bytes.
func encodeBinary(t *testing.T, p *Program) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.EncodeBinary(&buf); err != nil {
		t.Fatalf("EncodeBinary: %v", err)
	}
	return buf.Bytes()
}

// replaceName rewrites one name in a binary program's name tables. old and
// new have one length, so every length prefix still holds.
func replaceName(t *testing.T, enc []byte, old, new string) []byte {
	t.Helper()
	if len(old) != len(new) || !bytes.Contains(enc, []byte(old)) {
		t.Fatalf("cannot replace %q by %q", old, new)
	}
	return bytes.Replace(enc, []byte(old), []byte(new), 1)
}

func TestDecodeRejections(t *testing.T) {
	g := trainingGraph(t)
	p := dataParallel(t, g)
	enc := encodeBinary(t, p)
	var js bytes.Buffer
	if err := p.Encode(&js); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	wide := dataParallel(t, g)
	wide.Instrs[0].ShardDim = 7 // x has rank 2

	cases := []struct {
		name    string
		data    []byte
		graph   *graph.Graph
		wantSub string
	}{
		{"graph size mismatch", enc, graph.New(), "binding graph"},
		{"unknown op", replaceName(t, enc, "matmul", "matmux"), g, "unknown op"},
		{"unknown collective", replaceName(t, enc, "all-reduce", "teleport!!"), g, "unknown collective"},
		{"bad version", append(append([]byte{}, enc[:4]...), append([]byte{99}, enc[5:]...)...), g, "version"},
		{"JSON program", js.Bytes(), g, "magic"},
		{"ill-formed program", encodeBinary(t, wide), g, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeBinary(bytes.NewReader(tc.data), tc.graph)
			if err == nil {
				t.Fatal("DecodeBinary accepted bad input")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestDecodeRejectsShapeDrift(t *testing.T) {
	// Same topology and node count, different tensor shapes: the structural
	// fingerprint must refuse the binding — the plan's sharding and cost were
	// optimized for different shapes.
	g := trainingGraph(t)
	g2 := graph.New()
	x := g2.AddPlaceholder("x", 0, 4, 9)
	w := g2.AddParameter("w", 9, 2)
	y := g2.AddOp(graph.MatMul, x, w)
	g2.SetLoss(g2.AddOp(graph.Sum, y))
	ones := g2.AddOnes()
	gy := g2.AddExpand(ones, g2.Node(y).Shape)
	xt := g2.AddOp(graph.Transpose, x)
	g2.Grads[w] = g2.AddOp(graph.MatMul, xt, gy)

	enc := encodeBinary(t, dataParallel(t, g))
	_, err := DecodeBinary(bytes.NewReader(enc), g2)
	if err == nil {
		t.Fatal("DecodeBinary bound a plan to a graph with different shapes")
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestDecodedProgramIsValidatedStructurally(t *testing.T) {
	// A well-framed program whose instruction order is ill-formed must be
	// rejected by the decoder's validation pass.
	g := trainingGraph(t)
	p := &Program{Graph: g, Instrs: []Instruction{
		{Ref: 2, Op: graph.MatMul, ShardDim: -1, FlopsScaled: true},
	}}
	_, err := DecodeBinary(bytes.NewReader(encodeBinary(t, p)), g)
	if err == nil || !strings.Contains(err.Error(), "before it is defined") {
		t.Fatalf("err = %v, want a use-before-def rejection", err)
	}
}
