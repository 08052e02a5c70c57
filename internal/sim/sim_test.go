package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"hap/internal/cluster"
	"hap/internal/cost"
	"hap/internal/dist"
	"hap/internal/models"
	"hap/internal/synth"
	"hap/internal/theory"
)

// mlpPlan plans a small MLP on a V100 + P100 pair.
func mlpPlan(tb testing.TB) (*cluster.Cluster, [][]float64, *dist.Program) {
	tb.Helper()
	c := cluster.FromGPUs(cluster.DefaultNetwork(),
		cluster.MachineSpec{Type: cluster.V100, GPUs: 1},
		cluster.MachineSpec{Type: cluster.P100, GPUs: 1})
	g := models.Training(models.MLP(256, 64, 128, 10))
	b := cost.UniformRatios(1, c.ProportionalRatios())
	p, _, err := synth.Synthesize(context.Background(), g, theory.New(g), c, b, synth.Options{})
	if err != nil {
		tb.Fatalf("Synthesize: %v", err)
	}
	return c, b, p
}

func plan(t *testing.T) (*cluster.Cluster, [][]float64, *Result) {
	t.Helper()
	c, b, p := mlpPlan(t)
	return c, b, Trace(c, p, b, Options{Seed: 1})
}

func TestSimulatedTimeExceedsAnalytic(t *testing.T) {
	c := cluster.FromGPUs(cluster.DefaultNetwork(),
		cluster.MachineSpec{Type: cluster.V100, GPUs: 1},
		cluster.MachineSpec{Type: cluster.P100, GPUs: 1})
	g := models.Training(models.MLP(256, 64, 128, 10))
	b := cost.UniformRatios(1, c.ProportionalRatios())
	p, stats, err := synth.Synthesize(context.Background(), g, theory.New(g), c, b, synth.Options{})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	actual := Run(c, p, b, Options{Seed: 1}).Time
	if actual <= stats.Cost {
		t.Errorf("simulated %v should exceed analytic %v (kernel+barrier overheads)", actual, stats.Cost)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	_, _, r1 := plan(t)
	_, _, r2 := plan(t)
	if r1.Time != r2.Time {
		t.Errorf("non-deterministic: %v vs %v", r1.Time, r2.Time)
	}
}

func TestEventsCoverAllDevices(t *testing.T) {
	c, _, r := plan(t)
	seen := map[int]bool{}
	for _, e := range r.Events {
		seen[e.TID] = true
		if e.Dur < 0 || e.TS < 0 {
			t.Fatalf("negative event: %+v", e)
		}
	}
	for j := 0; j < c.M(); j++ {
		if !seen[j] {
			t.Errorf("device %d has no trace events", j)
		}
	}
}

func TestWriteTraceValidJSON(t *testing.T) {
	_, _, r := plan(t)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, r.Events); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var parsed map[string][]TraceEvent
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(parsed["traceEvents"]) != len(r.Events) {
		t.Errorf("round-trip lost events")
	}
	if !strings.Contains(buf.String(), `"ph":"X"`) {
		t.Error("missing complete-event phase markers")
	}
}

func TestCommTimeTracked(t *testing.T) {
	_, _, r := plan(t)
	if r.CommTime < 0 || r.CommTime > r.Time {
		t.Errorf("comm time %v outside [0, %v]", r.CommTime, r.Time)
	}
}
