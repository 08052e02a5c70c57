package dist

import (
	"bytes"
	"strings"
	"testing"

	"hap/internal/collective"
	"hap/internal/graph"
)

func TestEncodeUsesStableNames(t *testing.T) {
	g := trainingGraph(t)
	p := dataParallel(t, g)
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	s := buf.String()
	for _, want := range []string{`"op": "matmul"`, `"comm": "all-reduce"`, `"shard_dim": 0`} {
		if !strings.Contains(s, want) {
			t.Errorf("encoded JSON lacks %s:\n%s", want, s)
		}
	}
	if strings.Contains(s, `"op": 4`) {
		t.Error("op kinds serialized by ordinal, not name")
	}
}

func TestParseKindsCoverAllNames(t *testing.T) {
	for _, k := range []collective.Kind{
		collective.AllReduce, collective.PaddedAllGather,
		collective.GroupedBroadcast, collective.ReduceScatter, collective.AllToAll,
	} {
		got, ok := collective.ParseKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	for _, op := range []graph.OpKind{graph.Placeholder, graph.MatMul, graph.CombineGradG, graph.PoolGrad} {
		got, ok := graph.ParseOpKind(op.String())
		if !ok || got != op {
			t.Errorf("ParseOpKind(%q) = %v, %v", op.String(), got, ok)
		}
	}
}
