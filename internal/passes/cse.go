// Collective common-subexpression elimination: deduplicate repeated
// identical collectives on the same SSA value.

package passes

import (
	"hap/internal/cluster"
	"hap/internal/dist"
	"hap/internal/graph"
)

// CollectiveCSE removes a collective that repeats the previous collective on
// the same tensor exactly (same kind and dimensions) with no other
// collective on that tensor in between. After the first, the tensor already
// holds the collective's target distribution, so the repeat is redundant —
// it states intent the program has already realized.
//
// The synthesizer cannot emit such programs (it communicates each tensor at
// most once), but decoded plans (hap.ReadProgramBinary) and hand-built
// programs can, and the structural validator accepts them: a duplicate is
// well-formed SSA. Left in place it would double-charge the cost model and,
// in the data plane, corrupt the value (collectives are state transitions,
// not idempotent operations — a second all-reduce multiplies by m). CSE
// canonicalizes such programs to the form their producer evidently meant.
type CollectiveCSE struct{}

// Name implements Pass.
func (CollectiveCSE) Name() string { return "collective-cse" }

// Run implements Pass.
func (CollectiveCSE) Run(p *dist.Program, c *cluster.Cluster) (int, error) {
	// last maps a tensor to the most recent collective applied to it.
	// Computations never reset an entry: reading a tensor does not change
	// its distribution, and SSA forbids re-defining it.
	last := map[graph.NodeID]dist.Instruction{}
	changed := 0
	out := p.Instrs[:0]
	for _, in := range p.Instrs {
		if in.IsComm {
			if prev, ok := last[in.Ref]; ok && sameComm(prev, in) {
				changed++
				continue
			}
			last[in.Ref] = in
		}
		out = append(out, in)
	}
	p.Instrs = out
	return changed, nil
}

func sameComm(a, b dist.Instruction) bool {
	return a.Coll == b.Coll && a.Dim == b.Dim && a.Dim2 == b.Dim2
}
