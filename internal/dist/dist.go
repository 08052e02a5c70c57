// Package dist defines HAP's distributed SPMD program IR (Sec. 4.1).
//
// A Program is the output of the synthesizer: a sequence of Instructions
// every device executes identically. Each instruction either computes one
// tensor of the single-device graph on local shards (a computation, possibly
// fused with the leaf-loader placements of Sec. 4.5) or applies a collective
// to redistribute an already-produced tensor (a communication). The graph is
// carried alongside the instruction list — instructions reference graph
// nodes by id and the graph remains the source of truth for shapes, flops
// and dataflow.
//
// Beyond the core representation, the package provides the subsystem layers
// every later pipeline stage builds on: a structural validator enforcing
// SSA-style well-formedness (Validate), a disassembler mirroring the paper's
// program listings (String, Format), stable JSON serialization for
// exporting/diffing/re-loading plans (Encode, Decode), program statistics
// (Stats), and a dead-code-elimination pass (Prune).
package dist

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"hap/internal/collective"
	"hap/internal/graph"
)

// Instruction is one SPMD instruction, executed identically on every device.
//
// A computation applies graph node Ref to that node's own inputs, so the
// instruction does not carry them: the program's graph holds them, and
// Text reads them from it. The fields are ordered for size: the four
// one-byte fields (Op, FlopsScaled, IsComm, Coll) come last and share one
// word, so an instruction is a comparable 40-byte value. A plan's
// instruction list is the one copy of its instructions, and the client
// decodes one per served plan.
type Instruction struct {
	// Ref is the single-device tensor this instruction produces (computation)
	// or redistributes in place (communication).
	Ref graph.NodeID
	// ShardDim is the dimension a leaf loader (or a sharded Expand) splits
	// locally, -1 for replicated. Unused (-1) for communication.
	ShardDim int
	// Dim is the sharding dimension the collective operates on (the gathered
	// or scattered dim); Dim2 is All-To-All's destination sharding dim.
	Dim, Dim2 int
	// Op is the computation's op kind, mirroring the graph node. Unused for
	// communication instructions.
	Op graph.OpKind
	// FlopsScaled reports whether per-device flops scale with the sharding
	// ratio (false for replicated execution, the SFB-enabling rules).
	FlopsScaled bool
	// IsComm marks communication instructions.
	IsComm bool
	// Coll is the collective kind (communication only).
	Coll collective.Kind
}

// Comm builds a communication instruction applying the collective kind to
// tensor ref on dimension d (and resharding onto d2 for All-To-All).
func Comm(ref graph.NodeID, kind collective.Kind, d, d2 int) Instruction {
	return Instruction{Ref: ref, ShardDim: -1, IsComm: true, Coll: kind, Dim: d, Dim2: d2}
}

// Text renders the instruction in the paper's listing notation:
// "all-gather(e3, 1)" for collectives, "e5 = matmul(e1, e3)" for
// computations, with sharded placements as "e0 = placeholder-shard(0)". A
// computation's inputs are node Ref's in g; a reference outside g (or a nil
// g) renders none. The text is appended into one buffer sized for it, so a
// call allocates once.
func (in Instruction) Text(g *graph.Graph) string {
	var b strings.Builder
	if in.IsComm {
		name := in.Coll.String()
		b.Grow(len(name) + 8 + decLen(int(in.Ref)) + decLen(in.Dim) + decLen(in.Dim2))
		b.WriteString(name)
		writeInt(&b, "(e", int(in.Ref))
		if in.Coll != collective.AllReduce {
			writeInt(&b, ", ", in.Dim)
		}
		if in.Coll == collective.AllToAll {
			writeInt(&b, ", ", in.Dim2)
		}
		b.WriteByte(')')
		return b.String()
	}
	var inputs []graph.NodeID
	if n := nodeOf(g, in.Ref); n != nil {
		inputs = n.Inputs
	}
	op := in.Op.String()
	size := len(op) + 16 + decLen(int(in.Ref)) + decLen(in.ShardDim)
	for _, u := range inputs {
		size += 3 + decLen(int(u))
	}
	b.Grow(size)
	writeInt(&b, "e", int(in.Ref))
	b.WriteString(" = ")
	b.WriteString(op)
	if in.ShardDim >= 0 {
		b.WriteString("-shard")
	}
	b.WriteByte('(')
	for i, u := range inputs {
		if i > 0 {
			b.WriteString(", ")
		}
		writeInt(&b, "e", int(u))
	}
	if in.ShardDim >= 0 {
		if len(inputs) > 0 {
			b.WriteString(", ")
		}
		writeInt(&b, "", in.ShardDim)
	}
	b.WriteByte(')')
	return b.String()
}

// writeInt writes prefix and then v in decimal.
func writeInt(b *strings.Builder, prefix string, v int) {
	var digits [20]byte
	b.WriteString(prefix)
	b.Write(strconv.AppendInt(digits[:0], int64(v), 10))
}

// decLen is the length of v in decimal, its sign included.
func decLen(v int) int {
	n := 1
	if v < 0 {
		n, v = 2, -v
	}
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// nodeOf returns g's node ref, or nil when g is nil or has no such node:
// rendering takes programs that Validate would refuse.
func nodeOf(g *graph.Graph, ref graph.NodeID) *graph.Node {
	if g == nil || ref < 0 || int(ref) >= g.NumNodes() {
		return nil
	}
	return g.Node(ref)
}

// Program is a synthesized SPMD program over a single-device graph.
type Program struct {
	Graph  *graph.Graph
	Instrs []Instruction
}

// Clone returns a copy of the program whose instruction list is
// independent of the original. The graph is shared: optimization passes
// rewrite instructions, never the graph.
func (p *Program) Clone() *Program {
	return &Program{Graph: p.Graph, Instrs: append([]Instruction(nil), p.Instrs...)}
}

// NumComms returns the number of communication instructions.
func (p *Program) NumComms() int {
	n := 0
	for i := range p.Instrs {
		if p.Instrs[i].IsComm {
			n++
		}
	}
	return n
}

// Format writes the program one instruction per line, mirroring the paper's
// program listings (Fig. 6): communications in assignment form
// ("e7 = all-gather(e7, 1)"), computations annotated with the node's name,
// the loss marker, and "replicated" for non-leaf computations whose flops do
// not scale with the sharding ratio (the SFB pattern).
func (p *Program) Format(w io.Writer) error {
	for i := range p.Instrs {
		in := &p.Instrs[i]
		line := in.Text(p.Graph)
		if in.IsComm {
			line = fmt.Sprintf("e%d = %s", in.Ref, line)
		}
		var notes []string
		if n := nodeOf(p.Graph, in.Ref); n != nil && !in.IsComm {
			if n.Name != "" {
				notes = append(notes, n.Name)
			}
			if in.Ref == p.Graph.Loss {
				notes = append(notes, "loss")
			}
			if !in.FlopsScaled && !n.Kind.IsLeaf() && n.Kind != graph.Expand {
				notes = append(notes, "replicated")
			}
		}
		if len(notes) > 0 {
			line += "  # " + strings.Join(notes, ", ")
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// String renders the program as its disassembly listing.
func (p *Program) String() string {
	var b strings.Builder
	p.Format(&b) // strings.Builder writes cannot fail
	return b.String()
}
