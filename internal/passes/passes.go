// Package passes canonicalizes distributed programs after the fact: a
// reusable rewrite layer over the dist.Program IR for programs the
// synthesizer did not emit. The planner does not run it — the synthesizer
// never communicates a tensor twice, so its programs hold no collective pair
// to fuse and no repeat to deduplicate, and a prune (dist.Prune) is all they
// need.
//
// Decoded or hand-built programs (hap.ReadProgramBinary, baselines,
// lowered backends such as ExpandAllReduce's) carry whatever their producer
// wrote. A Pass rewrites one program in place — merging collective pairs
// into cheaper equivalents, deduplicating redundant collectives, deleting
// dead code — and reports how many rewrites it made. A Pipeline runs a pass
// list to a fixed point with per-pass stats and (optionally) the structural
// validator after every pass, so a buggy rewrite is caught at the pass
// boundary instead of deep inside the cost model or the numeric runtime.
//
// Passes only ever need the program and the cluster: cost decisions (is the
// fused collective actually cheaper here?) are made against the analytic
// collective model under even sharding, the same canonical basis the fitted
// linear models use (collective.Fit).
package passes

import (
	"fmt"

	"hap/internal/cluster"
	"hap/internal/dist"
)

// Pass is one program rewrite. Run mutates p in place and returns the number
// of rewrites applied (0 = fixed point reached for this pass).
type Pass interface {
	Name() string
	Run(p *dist.Program, c *cluster.Cluster) (changed int, err error)
}

// PassStat reports one pass's cumulative effect across pipeline rounds.
type PassStat struct {
	Pass    string `json:"pass"`
	Runs    int    `json:"runs"`
	Changed int    `json:"changed"`
}

// Stats summarizes one Pipeline.Run.
type Stats struct {
	// Rounds is the number of full rounds executed (1 = already at a fixed
	// point after the first sweep).
	Rounds int `json:"rounds"`
	// Changed is the total rewrite count across all passes and rounds.
	Changed int `json:"changed"`
	// Converged reports that the final round changed nothing — a true fixed
	// point. False means MaxRounds expired with rewrites still happening
	// (an oscillating pass pair); the program is still validated but holds
	// whatever state the last round produced.
	Converged bool `json:"converged"`
	// PerPass breaks Changed down by pass, in pipeline order.
	PerPass []PassStat `json:"per_pass,omitempty"`
}

// ChangedBy returns the cumulative rewrite count of the named pass.
func (s Stats) ChangedBy(name string) int {
	for _, ps := range s.PerPass {
		if ps.Pass == name {
			return ps.Changed
		}
	}
	return 0
}

// Pipeline runs an ordered pass list to a fixed point.
type Pipeline struct {
	// Passes run in order within each round.
	Passes []Pass
	// Validate runs the structural validator after every pass, failing fast
	// on a rewrite that broke SSA well-formedness.
	Validate bool
	// MaxRounds bounds the fixed-point iteration (0 = 4; every shipped pass
	// converges in one round, the bound is the backstop for pass cycles).
	MaxRounds int
}

// Default returns the standard pipeline: collective fusion,
// collective CSE, then dead-code elimination, validated after every pass.
func Default() *Pipeline {
	return &Pipeline{
		Passes:   []Pass{CommFusion{}, CollectiveCSE{}, DCE{}},
		Validate: true,
	}
}

// Run drives the pipeline to a fixed point (no pass changes anything in a
// full round) or to MaxRounds, whichever comes first; Stats.Converged
// distinguishes the two. The program is mutated in place; on error it may
// hold a partially rewritten (but, with Validate set, still well-formed)
// program.
func (pl *Pipeline) Run(p *dist.Program, c *cluster.Cluster) (Stats, error) {
	maxRounds := pl.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 4
	}
	stats := Stats{PerPass: make([]PassStat, len(pl.Passes))}
	for i, pass := range pl.Passes {
		stats.PerPass[i].Pass = pass.Name()
	}
	for round := 1; round <= maxRounds; round++ {
		stats.Rounds = round
		roundChanged := 0
		for i, pass := range pl.Passes {
			n, err := pass.Run(p, c)
			stats.PerPass[i].Runs++
			stats.PerPass[i].Changed += n
			stats.Changed += n
			roundChanged += n
			if err != nil {
				return stats, fmt.Errorf("passes: %s: %w", pass.Name(), err)
			}
			// Validate unconditionally, not only when the pass reports
			// changes: a buggy pass that mutates the program but returns 0
			// must still be caught at its own boundary.
			if pl.Validate {
				if err := p.Validate(); err != nil {
					return stats, fmt.Errorf("passes: %s produced an ill-formed program: %w", pass.Name(), err)
				}
			}
		}
		if roundChanged == 0 {
			stats.Converged = true
			break
		}
	}
	return stats, nil
}

// nextTouch returns the index of the first instruction after i that touches
// the tensor communicated or computed at i — a collective on the same
// tensor, or a computation reading it — or -1 if none does. Computation
// reads come from the carried graph (the source of truth for dataflow;
// instruction input lists may legally be empty).
func nextTouch(p *dist.Program, i int) int {
	ref := p.Instrs[i].Ref
	g := p.Graph
	for j := i + 1; j < len(p.Instrs); j++ {
		in := &p.Instrs[j]
		if in.Ref == ref {
			return j
		}
		if !in.IsComm {
			for _, u := range g.Node(in.Ref).Inputs {
				if u == ref {
					return j
				}
			}
		}
	}
	return -1
}
