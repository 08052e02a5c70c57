// The appending encoders held byte for byte to the stream encoder they
// replaced (ReferenceEncodeBinary, reference_test.go): a program's
// AppendBinary and EncodeBinary, and planwire.Append against the payload
// writer it replaced (referencePayload). External test package: the plans
// are synthesized through internal/synth, and planwire imports dist.
package dist_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"testing"

	"hap/internal/cluster"
	"hap/internal/cost"
	"hap/internal/dist"
	"hap/internal/graph"
	"hap/internal/models"
	"hap/internal/planwire"
	"hap/internal/segment"
	"hap/internal/synth"
	"hap/internal/theory"
)

// referencePayload is the plan payload writer as it stood before planwire
// appended the payload: the reference program encoding into a buffer, the
// trailer, its length and the magic written after it.
func referencePayload(t *testing.T, p *dist.Program, ratios [][]float64, c float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dist.ReferenceEncodeBinary(p, &buf); err != nil {
		t.Fatal(err)
	}
	tr, err := json.Marshal(planwire.Trailer{Ratios: ratios, SegmentOf: p.Graph.SegmentOf, Cost: c})
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(tr)
	var suffix [8]byte
	binary.BigEndian.PutUint32(suffix[:4], uint32(len(tr)))
	copy(suffix[4:], planwire.Magic[:])
	buf.Write(suffix[:])
	return buf.Bytes()
}

// TestAppendMatchesReferenceEncoder synthesizes the MLP, a segmented MLP and
// the four paper models on the paper's heterogeneous and homogeneous
// clusters, and holds every encoding of each plan to the reference's bytes.
func TestAppendMatchesReferenceEncoder(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes model-scale plans")
	}
	type input struct {
		name     string
		build    func(gpus int) *graph.Graph
		segments int
	}
	mlp := func(int) *graph.Graph { return quickstartGraph(t) }
	inputs := []input{{"MLP", mlp, 1}, {"MLP/seg2", mlp, 2}}
	for _, m := range models.AllPaperModels {
		m := m
		inputs = append(inputs, input{string(m), func(gpus int) *graph.Graph { return models.Build(m, gpus) }, 1})
	}
	for _, cl := range []struct {
		name string
		c    *cluster.Cluster
	}{{"het", cluster.PaperHeterogeneous(1)}, {"hom", cluster.PaperHomogeneous(2)}} {
		for _, in := range inputs {
			name := in.name + "/" + cl.name
			g := in.build(cl.c.TotalGPUs())
			if in.segments > 1 {
				if segment.Assign(g, in.segments); g.NumSegments() != in.segments {
					t.Fatalf("%s: %d segments, want %d", name, g.NumSegments(), in.segments)
				}
			}
			b := cost.UniformRatios(g.NumSegments(), cl.c.ProportionalRatios())
			p, _, err := synth.Synthesize(context.Background(), g, theory.New(g), cl.c, b, synth.Options{BeamWidth: 48})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var ref bytes.Buffer
			if err := dist.ReferenceEncodeBinary(p, &ref); err != nil {
				t.Fatal(err)
			}
			prefix := []byte("prefix")
			got, err := p.AppendBinary(bytes.Clone(prefix))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], ref.Bytes()) {
				t.Errorf("%s: AppendBinary's %d bytes differ from the reference's %d", name, len(got)-len(prefix), ref.Len())
			}
			var enc bytes.Buffer
			if err := p.EncodeBinary(&enc); err != nil || !bytes.Equal(enc.Bytes(), ref.Bytes()) {
				t.Errorf("%s: EncodeBinary's %d bytes differ from the reference's %d (%v)", name, enc.Len(), ref.Len(), err)
			}
			c := cost.Extract(cl.c, p).Eval(b)
			want := referencePayload(t, p, b, c)
			payload, err := planwire.Append(nil, p, b, c)
			if err != nil || !bytes.Equal(payload, want) {
				t.Errorf("%s: Append's %d-byte payload differs from the reference's %d (%v)", name, len(payload), len(want), err)
			}
			t.Logf("%s: %d instructions, %d-byte program, %d-byte payload", name, len(p.Instrs), ref.Len(), len(want))
		}
	}
}
