// The in-place binary decoder held to the stream decoder it replaced
// (ReferenceDecodeBinary, reference_test.go), and to a fixed allocation
// count. External test package: the payloads are real plans synthesized
// through internal/synth, which imports dist.
package dist_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hap/internal/autodiff"
	"hap/internal/cluster"
	"hap/internal/cost"
	"hap/internal/dist"
	"hap/internal/graph"
	"hap/internal/models"
	"hap/internal/segment"
	"hap/internal/synth"
	"hap/internal/theory"
)

// payload is one binary program and the graph it binds to.
type payload struct {
	name string
	g    *graph.Graph
	data []byte
}

var (
	realOnce     sync.Once
	realPayloads []payload
	realErr      error
)

// modelPayloads synthesizes VGG19, BERT-Base and a 4-segment VGG19 on the
// paper's heterogeneous cluster, once per test binary, and encodes each.
func modelPayloads(t *testing.T) []payload {
	t.Helper()
	if testing.Short() {
		t.Skip("synthesizes three model-scale plans")
	}
	realOnce.Do(func() {
		c := cluster.PaperHeterogeneous(1)
		for _, in := range []struct {
			name     string
			model    models.PaperModel
			segments int
		}{{"VGG19", models.ModelVGG19, 1}, {"BERT-Base", models.ModelBERTBase, 1}, {"VGG19/seg4", models.ModelVGG19, 4}} {
			g := models.Build(in.model, c.TotalGPUs())
			if in.segments > 1 {
				if segment.Assign(g, in.segments); g.NumSegments() != in.segments {
					realErr = fmt.Errorf("%s: %d segments, want %d", in.name, g.NumSegments(), in.segments)
					return
				}
			}
			b := cost.UniformRatios(g.NumSegments(), c.ProportionalRatios())
			p, _, err := synth.Synthesize(context.Background(), g, theory.New(g), c, b, synth.Options{BeamWidth: 48, Workers: 1})
			if err != nil {
				realErr = err
				return
			}
			var buf bytes.Buffer
			if err := p.EncodeBinary(&buf); err != nil {
				realErr = err
				return
			}
			realPayloads = append(realPayloads, payload{in.name, g, buf.Bytes()})
		}
	})
	if realErr != nil {
		t.Fatal(realErr)
	}
	return realPayloads
}

// quickstartGraph is the graph the root package's binary plan fuzz corpus
// binds to (the quickstart MLP).
func quickstartGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	x := g.AddPlaceholder("x", 0, 64, 48)
	w1 := g.AddParameter("w1", 48, 32)
	w2 := g.AddParameter("w2", 32, 8)
	h := g.AddOp(graph.ReLU, g.AddOp(graph.MatMul, x, w1))
	g.SetLoss(g.AddOp(graph.Sum, g.AddScale(g.AddOp(graph.MatMul, h, w2), 1.0/64)))
	if err := autodiff.Backward(g); err != nil {
		t.Fatal(err)
	}
	return g
}

// corpusPayloads reads the committed FuzzReadProgramBinary corpus. Its
// entries are whole plan payloads; the program decoders ignore the trailer.
func corpusPayloads(t *testing.T) []payload {
	t.Helper()
	dir := filepath.Join("..", "..", "testdata", "fuzz", "FuzzReadProgramBinary")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []payload
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		_, val, _ := strings.Cut(string(raw), "\n")
		quoted, ok := strings.CutPrefix(strings.TrimSpace(val), "[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if !ok || err != nil {
			t.Fatalf("corpus entry %s: not a []byte value (%v)", e.Name(), err)
		}
		out = append(out, payload{e.Name(), quickstartGraph(t), []byte(data)})
	}
	if len(out) == 0 {
		t.Fatalf("no corpus entries in %s", dir)
	}
	return out
}

// decision is what a decoder made of one payload.
type decision struct {
	ok   bool
	prog *dist.Program
}

// decide runs the reference, the new decoder, and the new decoder with the
// graph's fingerprint given. The two new paths must always agree with each
// other; the result says whether they agree with the reference.
func decide(t *testing.T, name string, data []byte, g *graph.Graph, fp string) (ref, got decision) {
	t.Helper()
	rp, rerr := dist.ReferenceDecodeBinary(bytes.NewReader(data), g)
	gp, gerr := dist.DecodeBinary(bytes.NewReader(data), g)
	kp, kerr := dist.DecodeBinaryWithFingerprint(data, g, fp)
	if (gerr == nil) != (kerr == nil) || gerr == nil && !reflect.DeepEqual(gp.Instrs, kp.Instrs) {
		t.Fatalf("%s: the known-fingerprint path decides otherwise (%v vs %v)", name, gerr, kerr)
	}
	return decision{rerr == nil, rp}, decision{gerr == nil, gp}
}

// same reports whether two decisions are the same accept/reject with the
// same program.
func same(a, b decision) bool {
	if a.ok != b.ok {
		return false
	}
	return !a.ok || a.prog.String() == b.prog.String() && reflect.DeepEqual(a.prog.Instrs, b.prog.Instrs)
}

// The committed corpus decodes as it did under the reference, but for the
// one payload the reference misread: a flagged shard dim of 2^64−1, which it
// accepted as −1 (replicated) and the new decoder rejects.
func TestDecodeBinaryMatchesReferenceOnCorpus(t *testing.T) {
	misread := map[string]bool{"shard-dim-wraps-to-replicated": true}
	seen := 0
	for _, p := range corpusPayloads(t) {
		ref, got := decide(t, p.name, p.data, p.g, graph.Fingerprint(p.g))
		switch {
		case misread[p.name]:
			seen++
			if !ref.ok || got.ok {
				t.Errorf("%s: reference accepts %v, decoder accepts %v; want the reference's misreading rejected", p.name, ref.ok, got.ok)
			}
		case !same(ref, got):
			t.Errorf("%s: reference accepts %v, decoder accepts %v (or the programs differ)", p.name, ref.ok, got.ok)
		}
	}
	if seen != len(misread) {
		t.Errorf("found %d of the %d expected misread payloads in the corpus", seen, len(misread))
	}
}

// Real plans, every truncation of them and every single-byte flip (low bit
// and all bits) decode as under the reference: the same accept/reject
// decision and, when accepted, the same program.
func TestDecodeBinaryMatchesReferenceOnMutations(t *testing.T) {
	for _, p := range modelPayloads(t) {
		fp := graph.Fingerprint(p.g)
		if ref, got := decide(t, p.name, p.data, p.g, fp); !ref.ok || !same(ref, got) {
			t.Fatalf("%s: the intact payload: reference accepts %v, decoder accepts %v", p.name, ref.ok, got.ok)
		}
		var mismatches, accepted int
		check := func(kind string, i int, data []byte) {
			ref, got := decide(t, p.name, data, p.g, fp)
			if !same(ref, got) {
				mismatches++
				if mismatches <= 5 {
					t.Errorf("%s, %s at byte %d: reference accepts %v, decoder accepts %v (or the programs differ)", p.name, kind, i, ref.ok, got.ok)
				}
			}
			if got.ok {
				accepted++
			}
		}
		for i := 0; i < len(p.data); i++ {
			check("truncation", i, p.data[:i])
		}
		flipped := bytes.Clone(p.data)
		for i := range flipped {
			for _, mask := range []byte{0x01, 0xff} {
				flipped[i] ^= mask
				check("flip", i, flipped)
				flipped[i] ^= mask
			}
		}
		t.Logf("%s: %d bytes, %d truncations and %d flips, %d mutants accepted, %d disagreements", p.name, len(p.data), len(p.data), 2*len(p.data), accepted, mismatches)
	}
}

// decodeAllocs is what decoding one binary program costs in allocations,
// whatever its size: the payload read, the program and its instruction and
// input slices, the two kind tables, the graph fingerprint (sorted gradient
// pairs, hex digest) and Validate's definition set. The reference allocated
// an input slice per computation instruction, so its count grew with the
// plan (VGG19 and BERT-Base differ). The gradient pairs have been sorted by
// slices.SortFunc since the graph's wire JSON stopped reflecting; sort.Slice's
// swapper and closure cost three more (17). The fingerprint's hasher has been
// an inline FNV-1a value since the seeded miss stopped allocating per node;
// the heap hasher, its hash/fnv state and the digest's fmt boxing cost three
// more (14).
const decodeAllocs = 11

func TestDecodeBinaryAllocationPin(t *testing.T) {
	for _, p := range modelPayloads(t)[:2] { // VGG19, BERT-Base
		var prog *dist.Program
		got := testing.AllocsPerRun(10, func() {
			var err error
			if prog, err = dist.DecodeBinary(bytes.NewReader(p.data), p.g); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d instructions, %.0f allocs per decode", p.name, len(prog.Instrs), got)
		if got != decodeAllocs {
			t.Errorf("%s: %.0f allocs per DecodeBinary, want %d", p.name, got, decodeAllocs)
		}
	}
}
