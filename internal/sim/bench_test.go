// Benchmarks of the clock on a paper-scale beam plan, for profiling
// (-benchmem, -cpuprofile). Their times are not gated anywhere; what a walk
// allocates is held by TestRunAllocationPin and TestTraceAllocationPin.
package sim

import (
	"testing"

	"hap/internal/cluster"
	"hap/internal/dist"
)

// benchClock times run on the VGG19 × PaperHeterogeneous(1) beam plan at
// seed 1.
func benchClock(b *testing.B, run func(*cluster.Cluster, *dist.Program, [][]float64, Options) *Result) {
	in := paperPlan(b, "VGG19 het8", cluster.PaperHeterogeneous(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(in.c, in.p, in.b, Options{Seed: 1})
	}
}

// BenchmarkRun times the clock alone, what hap.Simulate and every figure
// cell pay.
func BenchmarkRun(b *testing.B) { benchClock(b, Run) }

// BenchmarkTrace times the clock with the Chrome-trace timeline, what
// hap.WriteTrace pays.
func BenchmarkTrace(b *testing.B) { benchClock(b, Trace) }

// TestRunAllocationPin holds Run to a constant number of allocations, the
// same on the 2-device MLP's 18 instructions as on VGG19's 155 over 8
// devices: the result, one per-device buffer reused by every stage and,
// with noise on, the RNG's source. Run read 113 allocations on the MLP,
// 3 189 on VGG19 × het8 and 1 624 on VGG19 × hom4 while every Run also
// built the trace (an instruction name per device and an event append
// each) and split the program into stage slices.
func TestRunAllocationPin(t *testing.T) {
	for _, in := range clockInputs(t) {
		for _, o := range clockOptions {
			got := testing.AllocsPerRun(5, func() { Run(in.c, in.p, in.b, o.opt) })
			t.Logf("%s %s: %.0f allocs per Run", in.name, o.name, got)
			if got > runAllocs {
				t.Errorf("%s %s: Run makes %.0f allocs, want at most %d", in.name, o.name, got, runAllocs)
			}
		}
	}
}

// runAllocs bounds Run's allocations on any program.
const runAllocs = 3

// TestTraceAllocationPin holds Trace to one allocation per instruction
// plus a constant: the events slice is sized up front, a collective's or a
// computation's name is formatted once for all devices, not once per device
// as when VGG19 × het8's trace read 3 189 allocations, and a name is
// appended into one buffer sized for it (Instruction.Text). VGG19 × het8's
// 155 instructions now cost 159 allocations; while Text formatted each
// operand with fmt they cost 395, 391 of them the names. The names are
// counted with the renderer Trace uses, Instruction.Text on the program's
// graph.
func TestTraceAllocationPin(t *testing.T) {
	for _, in := range clockInputs(t) {
		n := float64(len(in.p.Instrs))
		names := testing.AllocsPerRun(5, func() {
			for i := range in.p.Instrs {
				_ = in.p.Instrs[i].Text(in.p.Graph)
			}
		})
		got := testing.AllocsPerRun(5, func() { Trace(in.c, in.p, in.b, Options{Seed: 1}) })
		t.Logf("%s: %.0f allocs per Trace, %.0f to name each of %.0f instructions once", in.name, got, names, n)
		if names != n {
			t.Errorf("%s: naming %.0f instructions makes %.0f allocs, want one each", in.name, n, names)
		}
		if got > n+runAllocs+1 {
			t.Errorf("%s: Trace makes %.0f allocs, want at most %.0f (a name per instruction + Run's %d + the events)",
				in.name, got, n+runAllocs+1, runAllocs)
		}
	}
}

// TestTraceMatchesRun holds the one walk: Trace reports Run's Time and
// CommTime bit for bit, and Run records no event.
func TestTraceMatchesRun(t *testing.T) {
	for _, in := range clockInputs(t) {
		for _, o := range clockOptions {
			r, tr := Run(in.c, in.p, in.b, o.opt), Trace(in.c, in.p, in.b, o.opt)
			if r.Events != nil {
				t.Errorf("%s %s: Run recorded %d events", in.name, o.name, len(r.Events))
			}
			if tr.Time != r.Time || tr.CommTime != r.CommTime {
				t.Errorf("%s %s: Trace reads %v / %v, Run %v / %v", in.name, o.name, tr.Time, tr.CommTime, r.Time, r.CommTime)
			}
			if want := in.c.M() * len(in.p.Instrs); len(tr.Events) > want {
				t.Errorf("%s %s: %d events, more than devices × instructions = %d", in.name, o.name, len(tr.Events), want)
			}
		}
	}
}
