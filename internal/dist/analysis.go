// Program analyses: summary statistics and dead-code elimination.

package dist

import "hap/internal/collective"

// Stats summarizes a program for reporting and experiments.
type Stats struct {
	// Instrs is the total instruction count.
	Instrs int
	// Comms is the number of communication instructions.
	Comms int
	// FlopsScaled is the number of computations whose per-device flops scale
	// with the sharding ratio (the rest execute replicated).
	FlopsScaled int
	// PerCollective histograms the communication instructions by kind.
	PerCollective map[collective.Kind]int
}

// Stats computes the program's summary statistics.
func (p *Program) Stats() Stats {
	s := Stats{Instrs: len(p.Instrs), PerCollective: map[collective.Kind]int{}}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.IsComm {
			s.Comms++
			s.PerCollective[in.Coll]++
		} else if in.FlopsScaled {
			s.FlopsScaled++
		}
	}
	return s
}

// CollectiveCount histograms the communication instructions by kind
// (shorthand for Stats().PerCollective).
func (p *Program) CollectiveCount() map[collective.Kind]int {
	return p.Stats().PerCollective
}

// Prune removes instructions whose results cannot reach a required output
// (the loss or a parameter gradient), returning the number removed. The
// synthesizer's fused-leaf optimization (Sec. 4.5) can leave such dead code
// behind: a leaf loader or intermediate emitted for a triple whose consumer
// a cheaper alternative later displaced. Communications on dead tensors are
// removed with them; programs with no designated outputs are left untouched.
// The planner no longer calls it: its liveness walk (theory.Checker.Live)
// drops the same instructions and every collective whose layout nothing
// reads. Its one remaining caller is internal/passes' DCE, until ROADMAP M
// deletes that package.
func (p *Program) Prune() int {
	g := p.Graph
	if g == nil {
		return 0 // no graph: no outputs to anchor liveness
	}
	needed := make([]bool, g.NumNodes())
	anchored := false
	if g.Loss >= 0 {
		needed[g.Loss] = true
		anchored = true
	}
	for _, grad := range g.Grads {
		needed[grad] = true
		anchored = true
	}
	if !anchored {
		return 0
	}
	live := make([]bool, len(p.Instrs))
	for i := len(p.Instrs) - 1; i >= 0; i-- {
		in := &p.Instrs[i]
		if !needed[in.Ref] {
			continue
		}
		live[i] = true
		if !in.IsComm {
			for _, u := range g.Node(in.Ref).Inputs {
				needed[u] = true
			}
		}
	}
	kept := p.Instrs[:0]
	removed := 0
	for i := range p.Instrs {
		if live[i] {
			kept = append(kept, p.Instrs[i])
		} else {
			removed++
		}
	}
	p.Instrs = kept
	return removed
}
