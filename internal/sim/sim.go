// Package sim is the testbed substitute: it "runs" a distributed program on
// the modeled cluster and reports the actual per-iteration time, including
// the effects the analytic cost model of Sec. 3.2 deliberately ignores —
// per-kernel launch overhead, per-stage barrier synchronization, and slow
// multiplicative link-efficiency noise. The analytic model therefore
// under-estimates the simulated time while remaining strongly correlated
// with it, which is exactly the relationship Fig. 18 reports against the
// real testbed.
//
// Run computes the clock alone: it formats no name and records no event,
// and allocates the same few objects for any program. Trace walks the same
// stages and also records a Chrome-trace timeline, which WriteTrace writes
// as JSON like the artifact's trace.json.gz, for the Chrome tracing UI.
package sim

import (
	"encoding/json"
	"io"
	"math/rand"

	"hap/internal/cluster"
	"hap/internal/cost"
	"hap/internal/dist"
)

// Options tunes the simulated overheads.
type Options struct {
	// KernelOverhead is charged per computation instruction per device
	// (default 8µs, a typical CUDA launch).
	KernelOverhead float64
	// BarrierOverhead is charged per synchronization stage (default 25µs).
	BarrierOverhead float64
	// NoiseSigma is the relative σ of the per-collective efficiency noise
	// (default 0.03). Negative disables noise entirely — the deterministic
	// mode program-rewrite tests compare simulated times in.
	NoiseSigma float64
	// Seed makes runs reproducible.
	Seed int64
}

func (o *Options) defaults() {
	if o.KernelOverhead == 0 {
		o.KernelOverhead = 8e-6
	}
	if o.BarrierOverhead == 0 {
		o.BarrierOverhead = 25e-6
	}
	if o.NoiseSigma == 0 {
		o.NoiseSigma = 0.03
	}
}

// TraceEvent is one Chrome-trace "X" (complete) event.
type TraceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
}

// Result of a simulated training iteration.
type Result struct {
	// Time is the simulated per-iteration wall time in seconds.
	Time float64
	// CommTime is the portion spent in collectives (on the critical path).
	CommTime float64
	// Events is the Chrome-trace timeline; only Trace fills it.
	Events []TraceEvent
}

// Run simulates one training iteration of program p under ratios b and
// reports its Time and CommTime; Events stays nil. Trace walks the same
// stages and also records the timeline.
func Run(c *cluster.Cluster, p *dist.Program, b [][]float64, opt Options) *Result {
	return walk(c, p, b, opt, nil)
}

// Trace is Run plus the Chrome-trace timeline in Events: one "comm" event
// per device for each stage's collective, one "comp" event per device for
// each computation. Time and CommTime are Run's, bit for bit.
func Trace(c *cluster.Cluster, p *dist.Program, b [][]float64, opt Options) *Result {
	tr := &tracer{events: make([]TraceEvent, 0, c.M()*len(p.Instrs))}
	res := walk(c, p, b, opt, tr)
	res.Events = tr.events
	return res
}

// tracer collects the timeline of a Trace. walk gets a nil *tracer from
// Run and then formats no name and appends no event.
type tracer struct {
	events []TraceEvent
}

// emit records one complete event on device dev.
func (t *tracer) emit(name, cat string, dev int, start, dur float64) {
	t.events = append(t.events, TraceEvent{
		Name: name, Cat: cat, Ph: "X",
		TS: start * 1e6, Dur: dur * 1e6, PID: 0, TID: dev,
	})
}

// walk is the clock: it runs p's synchronization stages in order. A stage
// opens with a collective, except a leading run of computations (the split
// cost.Stages makes), and ends at a barrier once its slowest device has
// finished.
func walk(c *cluster.Cluster, p *dist.Program, b [][]float64, opt Options, tr *tracer) *Result {
	opt.defaults()
	var rng *rand.Rand
	if opt.NoiseSigma > 0 {
		rng = rand.New(rand.NewSource(opt.Seed))
	}
	g := p.Graph
	m := c.M()
	res := &Result{}
	// comp is each device's time into the current stage's computation,
	// including intra-machine aggregation and per-kernel launch overheads.
	comp := make([]float64, m)
	instrs := p.Instrs

	clock := 0.0 // global (stage-synchronized) time, seconds
	for i := 0; ; {
		stageStart := clock
		commDur := 0.0
		var coll *dist.Instruction
		if i < len(instrs) && instrs[i].IsComm {
			coll = &instrs[i]
			i++
		}
		if coll != nil && m > 1 {
			commDur = cost.CommTime(c, g, *coll, b)
			if rng != nil {
				commDur *= 1 + opt.NoiseSigma*rng.NormFloat64()
				if commDur < 0 {
					commDur = 0
				}
			}
			if tr != nil {
				name := coll.Text(g)
				for j := 0; j < m; j++ {
					tr.emit(name, "comm", j, stageStart, commDur)
				}
			}
			res.CommTime += commDur
		}
		clear(comp)
		if coll != nil {
			cost.AddIntraPenalty(c, g, *coll, b, comp)
		}
		for ; i < len(instrs) && !instrs[i].IsComm; i++ {
			in := &instrs[i]
			seg := g.Segment(in.Ref)
			flops := g.Flops(in.Ref)
			var name string
			if tr != nil {
				name = in.Text(g)
			}
			for j, d := range c.Devices {
				f := flops
				if in.FlopsScaled {
					f *= b[seg][j]
				}
				dur := f/d.Flops() + opt.KernelOverhead
				if tr != nil {
					tr.emit(name, "comp", j, stageStart+commDur+comp[j], dur)
				}
				comp[j] += dur
			}
		}
		worst := 0.0
		for _, v := range comp {
			if v > worst {
				worst = v
			}
		}
		clock = stageStart + commDur + worst + opt.BarrierOverhead
		if i == len(instrs) {
			break
		}
	}
	res.Time = clock
	return res
}

// IterationTime is the scalar convenience wrapper used by the experiments.
func IterationTime(c *cluster.Cluster, p *dist.Program, b [][]float64, seed int64) float64 {
	return Run(c, p, b, Options{Seed: seed}).Time
}

// WriteTrace writes the Chrome-trace JSON ({"traceEvents": [...]}).
func WriteTrace(w io.Writer, events []TraceEvent) error {
	return json.NewEncoder(w).Encode(map[string]interface{}{"traceEvents": events})
}
