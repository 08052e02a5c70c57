// Program analyses: summary statistics.

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
