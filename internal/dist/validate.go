// Structural validation of distributed programs: SSA-style well-formedness
// over the carried graph. It is the binary plan decoder's check on outside
// input, which comes with no theory to check against, and the backstop for
// hand-built programs and the pass pipeline. The planner checks the plans
// it makes semantically, with theory.Check.

package dist

import (
	"errors"
	"fmt"

	"hap/internal/collective"
	"hap/internal/graph"
)

// Validate checks the program's structural well-formedness:
//
//   - the carried graph itself validates;
//   - every instruction references an existing graph node, and computation
//     op kinds mirror the node's;
//   - every input of a computation is defined by an earlier instruction
//     (use-before-def), and no tensor is computed twice;
//   - communications redistribute tensors that an earlier instruction
//     produced, with collective dimensions in range for the node's shape;
//   - shard dimensions are -1 (replicated) or in range;
//   - every required output (the loss and each parameter gradient known to
//     the graph) is materialized.
func (p *Program) Validate() error {
	if p.Graph == nil {
		return errors.New("dist: program has no graph")
	}
	g := p.Graph
	if err := g.Validate(); err != nil {
		return fmt.Errorf("dist: carried graph invalid: %w", err)
	}
	defined := make([]bool, g.NumNodes())
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Ref < 0 || int(in.Ref) >= g.NumNodes() {
			return fmt.Errorf("dist: instr %d references node e%d outside the %d-node graph", i, in.Ref, g.NumNodes())
		}
		n := g.Node(in.Ref)
		rank := len(n.Shape)
		if in.IsComm {
			if !defined[in.Ref] {
				return fmt.Errorf("dist: instr %d: collective %v on e%d before it is produced", i, in.Coll, in.Ref)
			}
			switch in.Coll {
			case collective.AllReduce:
				// Operates on full replicas; no dimension to check.
			case collective.PaddedAllGather, collective.GroupedBroadcast, collective.ReduceScatter:
				if in.Dim < 0 || in.Dim >= rank {
					return fmt.Errorf("dist: instr %d: %v dim %d out of range for e%d (shape %v)", i, in.Coll, in.Dim, in.Ref, n.Shape)
				}
			case collective.AllToAll:
				if in.Dim < 0 || in.Dim >= rank || in.Dim2 < 0 || in.Dim2 >= rank {
					return fmt.Errorf("dist: instr %d: all-to-all dims (%d, %d) out of range for e%d (shape %v)", i, in.Dim, in.Dim2, in.Ref, n.Shape)
				}
				if in.Dim == in.Dim2 {
					return fmt.Errorf("dist: instr %d: all-to-all on e%d reshards dim %d onto itself", i, in.Ref, in.Dim)
				}
			default:
				return fmt.Errorf("dist: instr %d: unknown collective kind %d", i, int(in.Coll))
			}
			continue
		}
		if defined[in.Ref] {
			return fmt.Errorf("dist: instr %d: e%d computed twice", i, in.Ref)
		}
		if in.Op != n.Kind {
			return fmt.Errorf("dist: instr %d: op %v does not match node e%d's kind %v", i, in.Op, in.Ref, n.Kind)
		}
		if in.ShardDim < -1 || in.ShardDim >= rank {
			return fmt.Errorf("dist: instr %d: shard dim %d out of range for e%d (shape %v)", i, in.ShardDim, in.Ref, n.Shape)
		}
		for _, u := range n.Inputs {
			if !defined[u] {
				return fmt.Errorf("dist: instr %d: e%d uses e%d before it is defined", i, in.Ref, u)
			}
		}
		defined[in.Ref] = true
	}
	if g.Loss >= 0 && !defined[g.Loss] {
		return fmt.Errorf("dist: loss e%d is never materialized", g.Loss)
	}
	// A missing gradient is reported by its lowest parameter id, so the
	// error does not depend on the map's iteration order.
	missing, found := graph.NodeID(0), false
	for param, grad := range g.Grads {
		if !defined[grad] && (!found || param < missing) {
			missing, found = param, true
		}
	}
	if found {
		return fmt.Errorf("dist: gradient e%d of parameter e%d is never materialized", g.Grads[missing], missing)
	}
	return nil
}
