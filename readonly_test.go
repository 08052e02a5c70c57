package hap_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"sync"
	"testing"

	"hap"
	"hap/client"
	"hap/internal/models"
	"hap/internal/segment"
	"hap/internal/serve"
)

// The caller's graph is read-only to the planner, to the plan readers and to
// the client: each leaves graph.Fingerprint(g) and g.Encode's bytes as they
// were (hap.GraphIdentity), and binds its plan to g or to a copy of g
// carrying the plan's segment assignment.

func readonlyGraph() *hap.Graph { return models.Training(models.MLP(64, 48, 32, 32, 32, 24, 8)) }

func readonlyCluster() *hap.Cluster {
	return hap.PerGPU(hap.MachineSpec{Type: hap.V100, GPUs: 1}, hap.MachineSpec{Type: hap.P100, GPUs: 1})
}

// wantUnwritten fails the test when g's identity is no longer before.
func wantUnwritten(t *testing.T, what string, g *hap.Graph, before string) {
	t.Helper()
	if hap.GraphIdentity(t, g) != before {
		t.Errorf("%s wrote the caller's graph (SegmentOf now %v)", what, g.SegmentOf)
	}
}

// wantBound fails the test unless the plan's graph carries one segment per
// ratio row, segments of them.
func wantBound(t *testing.T, plan *hap.Plan, segments int) {
	t.Helper()
	if n := plan.Program.Graph.NumSegments(); n != segments || len(plan.Ratios) != n {
		t.Errorf("the plan's graph has %d segments and the plan %d ratio rows, want %d", n, len(plan.Ratios), segments)
	}
}

func planBytes(t *testing.T, plan *hap.Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := plan.WriteProgramBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPlanDoesNotWriteTheGraph(t *testing.T) {
	c := readonlyCluster()
	for _, tc := range []struct {
		name       string
		arrives    int // segments of the assignment the graph arrives with (0 = none)
		segments   int
		wantRatios int
	}{
		{"segments-1", 0, 1, 1},
		{"segments-4", 0, 4, 4},
		{"arrives-segmented/segments-1", 3, 1, 1},
		{"arrives-segmented/segments-4", 3, 4, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := readonlyGraph()
			if tc.arrives > 0 {
				segment.Assign(g, tc.arrives)
			}
			before := hap.GraphIdentity(t, g)
			plan, err := hap.NewPlanner(c, hap.WithSegments(tc.segments)).Plan(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			wantUnwritten(t, "Plan", g, before)
			wantBound(t, plan, tc.wantRatios)
		})
	}
}

// Two Plan calls may share one graph: Planner is safe for concurrent use,
// and each call's plan is the one it makes alone.
func TestConcurrentPlansShareOneGraph(t *testing.T) {
	c := readonlyCluster()
	segments := []int{1, 2}
	alone := make([][]byte, len(segments))
	for i, n := range segments {
		plan, err := hap.NewPlanner(c, hap.WithSegments(n)).Plan(context.Background(), readonlyGraph())
		if err != nil {
			t.Fatal(err)
		}
		alone[i] = planBytes(t, plan)
	}
	g := readonlyGraph()
	before := hap.GraphIdentity(t, g)
	plans := make([]*hap.Plan, len(segments))
	errs := make([]error, len(segments))
	var wg sync.WaitGroup
	for i, n := range segments {
		wg.Add(1)
		go func(i, n int) {
			defer wg.Done()
			plans[i], errs[i] = hap.NewPlanner(c, hap.WithSegments(n)).Plan(context.Background(), g)
		}(i, n)
	}
	wg.Wait()
	for i, n := range segments {
		if errs[i] != nil {
			t.Fatalf("segments %d: %v", n, errs[i])
		}
		wantBound(t, plans[i], n)
		if !bytes.Equal(planBytes(t, plans[i]), alone[i]) {
			t.Errorf("segments %d: the plan made beside another differs from the one made alone", n)
		}
	}
	wantUnwritten(t, "two concurrent Plan calls", g, before)
}

func TestReadPlanDoesNotWriteTheGraph(t *testing.T) {
	plan, err := hap.NewPlanner(readonlyCluster(), hap.WithSegments(2)).Plan(context.Background(), readonlyGraph())
	if err != nil {
		t.Fatal(err)
	}
	bin := planBytes(t, plan)
	// A graph of the same shape at another batch size: the node counts agree,
	// so the segment assignment covers it and only the binding check refuses.
	other := func() *hap.Graph { return models.Training(models.MLP(32, 48, 32, 32, 32, 24, 8)) }
	read := func(g *hap.Graph) (*hap.Plan, error) { return hap.ReadProgramBinary(bytes.NewReader(bin), g) }
	t.Run("binary/accepted", func(t *testing.T) {
		g := readonlyGraph()
		before := hap.GraphIdentity(t, g)
		back, err := read(g)
		if err != nil {
			t.Fatal(err)
		}
		wantUnwritten(t, "an accepted read", g, before)
		wantBound(t, back, 2)
	})
	t.Run("binary/rejected", func(t *testing.T) {
		g := other()
		before := hap.GraphIdentity(t, g)
		if _, err := read(g); err == nil {
			t.Fatal("a plan for another graph was accepted")
		}
		wantUnwritten(t, "a rejected read", g, before)
	})
}

func TestClientSynthesizeDoesNotWriteTheGraph(t *testing.T) {
	s := serve.New(serve.Config{})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	g := readonlyGraph()
	before := hap.GraphIdentity(t, g)
	plan, err := client.New(srv.URL).Synthesize(context.Background(), g, readonlyCluster(), client.Options{Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantUnwritten(t, "client.Synthesize", g, before)
	wantBound(t, plan, 2)
}
