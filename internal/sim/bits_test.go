package sim

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"hap/internal/cluster"
	"hap/internal/cost"
	"hap/internal/dist"
	"hap/internal/models"
	"hap/internal/synth"
	"hap/internal/theory"
)

// clockInput is one program the clock is pinned on.
type clockInput struct {
	name string
	c    *cluster.Cluster
	p    *dist.Program
	b    [][]float64
}

// paperPlan plans VGG19 on c at B⁽⁰⁾ with the default beam, the plan TestGoldenPlanIdentity pins for the same input.
func paperPlan(tb testing.TB, name string, c *cluster.Cluster) clockInput {
	tb.Helper()
	g := models.Build(models.ModelVGG19, c.TotalGPUs())
	b := cost.UniformRatios(g.NumSegments(), c.ProportionalRatios())
	p, _, err := synth.Synthesize(context.Background(), g, theory.New(g), c, b, synth.Options{BeamWidth: 48})
	if err != nil {
		tb.Fatalf("%s: Synthesize: %v", name, err)
	}
	return clockInput{name, c, p, b}
}

// clockInputs are the three programs the clock's bits are pinned on: the
// 2-device MLP, VGG19 × PaperHeterogeneous(1) and VGG19 ×
// PaperHomogeneous(2), whose two-GPU machines pay intra-machine penalties.
func clockInputs(tb testing.TB) []clockInput {
	c, b, p := mlpPlan(tb)
	return []clockInput{
		{"MLP", c, p, b},
		paperPlan(tb, "VGG19 het8", cluster.PaperHeterogeneous(1)),
		paperPlan(tb, "VGG19 hom4", cluster.PaperHomogeneous(2)),
	}
}

// clockOptions are the pinned settings: two noisy seeds and noise off.
var clockOptions = []struct {
	name string
	opt  Options
}{
	{"seed=1", Options{Seed: 1}},
	{"seed=42", Options{Seed: 42}},
	{"noiseless", Options{NoiseSigma: -1}},
}

// clockBits are Run's Time and CommTime as float64 bits, per input and
// option, captured before the stage walk was split from the trace.
var clockBits = map[string][2]uint64{
	"MLP seed=1":           {0x3f2649fea9fe1749, 0x0},                // 0.0001700518960172043, 0
	"MLP seed=42":          {0x3f2649fea9fe1749, 0x0},                // 0.0001700518960172043, 0
	"MLP noiseless":        {0x3f2649fea9fe1749, 0x0},                // 0.0001700518960172043, 0
	"VGG19 het8 seed=1":    {0x4003c683178f1899, 0x3fe7ca9b6c7c6221}, // 2.4719297256988964, 0.7434823149552053
	"VGG19 het8 seed=42":   {0x4003f869bfa859c8, 0x3fe892360ce166e3}, // 2.49629544956699, 0.7678480388232994
	"VGG19 het8 noiseless": {0x4003f767f15f636c, 0x3fe88e2ed3bd8d7a}, // 2.4958037240252704, 0.7673563132815808
	"VGG19 hom4 seed=1":    {0x4005b191922a8937, 0x3fe5b84b6dc848af}, // 2.7117034358244854, 0.6787469047724438
	"VGG19 hom4 seed=42":   {0x4005958aa2aaf23d, 0x3fe5482fafc9ecbf}, // 2.6980183323305753, 0.6650618012785329
	"VGG19 hom4 noiseless": {0x40057a548aee3698, 0x3fe4db5750d6fe26}, // 2.684731564898197, 0.6517750338461539
}

// TestClockExactBits holds the simulated clock to the bit: the same RNG
// draws in the same order, the same arithmetic and the same association.
// Every Fig. 13–18 cell and bench's iter_time_s are read off this clock.
func TestClockExactBits(t *testing.T) {
	for _, in := range clockInputs(t) {
		for _, o := range clockOptions {
			key := in.name + " " + o.name
			r := Run(in.c, in.p, in.b, o.opt)
			got := [2]uint64{math.Float64bits(r.Time), math.Float64bits(r.CommTime)}
			if want, ok := clockBits[key]; !ok || got != want {
				t.Errorf("%s: Time, CommTime = %v, %v (bits %#x, %#x), want bits %#x, %#x",
					key, r.Time, r.CommTime, got[0], got[1], want[0], want[1])
			}
		}
	}
}

// mlpTrace is the MLP plan's trace at seed 1, event for event, captured
// before the stage walk was split from the trace.
var mlpTrace = []struct {
	name, cat string
	ts, dur   uint64
	tid       int
}{
	{"e0 = placeholder()", "comp", 0x0, 0x4020000000000000, 0},
	{"e0 = placeholder()", "comp", 0x0, 0x4020000000000000, 1},
	{"e1 = parameter-shard(1)", "comp", 0x4020000000000000, 0x4020000000000000, 0},
	{"e1 = parameter-shard(1)", "comp", 0x4020000000000000, 0x4020000000000000, 1},
	{"e2 = matmul(e0, e1)", "comp", 0x4030000000000000, 0x4020d6bf94d5e57a, 0},
	{"e2 = matmul(e0, e1)", "comp", 0x4030000000000000, 0x4020d6bf94d5e57a, 1},
	{"e3 = relu(e2)", "comp", 0x40386b5fca6af2bd, 0x402001ad7f29abca, 0},
	{"e3 = relu(e2)", "comp", 0x40386b5fca6af2bd, 0x402001ad7f29abca, 1},
	{"e4 = parameter-shard(0)", "comp", 0x4040361b44ffe451, 0x4020000000000000, 0},
	{"e4 = parameter-shard(0)", "comp", 0x4040361b44ffe451, 0x4020000000000000, 1},
	{"e5 = matmul(e3, e4)", "comp", 0x4044361b44ffe451, 0x4020218def416bdb, 0},
	{"e5 = matmul(e3, e4)", "comp", 0x4044361b44ffe451, 0x4020218def416bdb, 1},
	{"e6 = scale(e5)", "comp", 0x40483e7ec0d03f47, 0x402000356e3d6349, 0},
	{"e6 = scale(e5)", "comp", 0x40483e7ec0d03f47, 0x4020005a3338d666, 1},
	{"e7 = sum(e6)", "comp", 0x404c3e8c1c5f981a, 0x402000356e3d6349, 0},
	{"e7 = sum(e6)", "comp", 0x404c3e954d9e74e1, 0x4020005a3338d666, 1},
	{"e8 = ones()", "comp", 0x40501f4cbbf77875, 0x4020000000000000, 0},
	{"e8 = ones()", "comp", 0x40501f55ed36553e, 0x4020000000000000, 1},
	{"e9 = expand(e8)", "comp", 0x40521f4cbbf77876, 0x4020000000000000, 0},
	{"e9 = expand(e8)", "comp", 0x40521f55ed36553e, 0x4020000000000000, 1},
	{"e10 = scale(e9)", "comp", 0x40541f4cbbf77876, 0x402000356e3d6349, 0},
	{"e10 = scale(e9)", "comp", 0x40541f55ed36553e, 0x4020005a3338d666, 1},
	{"e11 = transpose(e4)", "comp", 0x40561f5369bf24df, 0x40200010c6f7a0b6, 0},
	{"e11 = transpose(e4)", "comp", 0x40561f61339d700b, 0x40200010c6f7a0b6, 1},
	{"e12 = matmul(e10, e11)", "comp", 0x40581f55829e18f5, 0x4020218def416bdb, 0},
	{"e12 = matmul(e10, e11)", "comp", 0x40581f634c7c6422, 0x4020218def416bdb, 1},
	{"e13 = transpose(e3)", "comp", 0x405a238740864670, 0x402001ad7f29abca, 0},
	{"e13 = transpose(e3)", "comp", 0x405a23950a64919d, 0x402001ad7f29abca, 1},
	{"e14 = matmul(e13, e10)", "comp", 0x405c23bcf06b7bea, 0x4020218def416bdb, 0},
	{"e14 = matmul(e13, e10)", "comp", 0x405c23caba49c717, 0x4020218def416bdb, 1},
	{"e15 = relu_grad(e2, e12)", "comp", 0x405e27eeae53a965, 0x402001ad7f29abca, 0},
	{"e15 = relu_grad(e2, e12)", "comp", 0x405e27fc7831f492, 0x402001ad7f29abca, 1},
	{"e16 = transpose(e0)", "comp", 0x406014122f1c6f6f, 0x40200155f4bc1502, 0},
	{"e16 = transpose(e0)", "comp", 0x40601419140b9505, 0x4020024147d228f8, 1},
	{"e17 = matmul(e16, e15)", "comp", 0x406114278e6830bf, 0x4020d6bf94d5e57a, 0},
	{"e17 = matmul(e16, e15)", "comp", 0x4061143d2888b795, 0x4020d6bf94d5e57a, 1},
}

func TestTraceExactEvents(t *testing.T) {
	c, b, p := mlpPlan(t)
	events := Trace(c, p, b, Options{Seed: 1}).Events
	if len(events) != len(mlpTrace) {
		t.Fatalf("%d events, want %d", len(events), len(mlpTrace))
	}
	for i, e := range events {
		w := mlpTrace[i]
		if e.Name != w.name || e.Cat != w.cat || math.Float64bits(e.TS) != w.ts ||
			math.Float64bits(e.Dur) != w.dur || e.TID != w.tid || e.Ph != "X" || e.PID != 0 {
			t.Errorf("event %d = %+v, want %s %s ts %v dur %v tid %d", i, e,
				w.name, w.cat, math.Float64frombits(w.ts), math.Float64frombits(w.dur), w.tid)
		}
	}
}

// traceDigest hashes every event's name, cat, TS, Dur and TID in order.
func traceDigest(events []TraceEvent) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, e := range events {
		h.Write([]byte(e.Name))
		h.Write([]byte{0})
		h.Write([]byte(e.Cat))
		for _, v := range []uint64{math.Float64bits(e.TS), math.Float64bits(e.Dur), uint64(e.TID)} {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// paperTraces are the paper plans' traces at seed 1, as event count and
// traceDigest, captured before the stage walk was split from the trace.
// Unlike the MLP plan, these carry collectives, noise and intra-machine
// penalties.
var paperTraces = map[string]struct {
	events int
	digest uint64
}{
	"VGG19 het8": {1240, 0x5e0e9a8643c7ec0f},
	"VGG19 hom4": {620, 0xed4ae681ecd082c5},
}

func TestTracePaperDigests(t *testing.T) {
	for _, in := range clockInputs(t)[1:] {
		events := Trace(in.c, in.p, in.b, Options{Seed: 1}).Events
		got := traceDigest(events)
		if w := paperTraces[in.name]; len(events) != w.events || got != w.digest {
			t.Errorf("%s: %d events with digest %#x, want %d with %#x", in.name, len(events), got, w.events, w.digest)
		}
	}
}
