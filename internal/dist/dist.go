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
// program listings (String), a JSON export for diffing plans
// (Encode, write-only: the binary form is the one that is read back),
// program statistics (Stats), and a dead-code-elimination pass (Prune).
package dist

import (
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
// g) renders none. The text is appended into a stack buffer and copied
// into one string of its length, so a call allocates once.
func (in Instruction) Text(g *graph.Graph) string {
	var buf [128]byte
	text := in.appendText(buf[:0], g)
	var b strings.Builder
	b.Grow(len(text))
	b.Write(text)
	return b.String()
}

// appendText appends in's text (Text) to b.
func (in Instruction) appendText(b []byte, g *graph.Graph) []byte {
	if in.IsComm {
		b = appendInt(append(b, in.Coll.String()...), "(e", int(in.Ref))
		if in.Coll != collective.AllReduce {
			b = appendInt(b, ", ", in.Dim)
		}
		if in.Coll == collective.AllToAll {
			b = appendInt(b, ", ", in.Dim2)
		}
		return append(b, ')')
	}
	var inputs []graph.NodeID
	if n := nodeOf(g, in.Ref); n != nil {
		inputs = n.Inputs
	}
	b = append(append(appendInt(b, "e", int(in.Ref)), " = "...), in.Op.String()...)
	if in.ShardDim >= 0 {
		b = append(b, "-shard"...)
	}
	b = append(b, '(')
	sep := ""
	for _, u := range inputs {
		b, sep = appendInt(b, sep+"e", int(u)), ", "
	}
	if in.ShardDim >= 0 {
		b = appendInt(b, sep, in.ShardDim)
	}
	return append(b, ')')
}

// appendInt appends prefix and then v in decimal.
func appendInt(b []byte, prefix string, v int) []byte {
	return strconv.AppendInt(append(b, prefix...), int64(v), 10)
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

// String renders the program one instruction per line, mirroring the
// paper's program listings (Fig. 6): communications in assignment form
// ("e7 = all-gather(e7, 1)"), computations annotated with the node's name,
// the loss marker, and "replicated" for non-leaf computations whose flops do
// not scale with the sharding ratio (the SFB pattern). The listing is
// written into one buffer.
func (p *Program) String() string {
	var b strings.Builder
	b.Grow(64 * len(p.Instrs)) // a longer listing grows it
	var line [128]byte
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.IsComm {
			b.Write(appendInt(line[:0], "e", int(in.Ref)))
			b.WriteString(" = ")
		}
		b.Write(in.appendText(line[:0], p.Graph))
		if n := nodeOf(p.Graph, in.Ref); n != nil && !in.IsComm {
			sep := "  # "
			note := func(text string, ok bool) {
				if ok {
					b.WriteString(sep)
					b.WriteString(text)
					sep = ", "
				}
			}
			note(n.Name, n.Name != "")
			note("loss", in.Ref == p.Graph.Loss)
			note("replicated", !in.FlopsScaled && !n.Kind.IsLeaf() && n.Kind != graph.Expand)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
