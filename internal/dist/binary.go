// Compact binary serialization of distributed programs — a plan's one wire
// encoding. The VGG19 program that renders as 14.5 KB of JSON (Encode,
// json.go) is 688 bytes here (TestBinaryModelScaleRoundTripAndSize), which
// matters when hap-serve holds thousands of cached plans and trainers fetch
// them on every cold start.
//
// Op and collective kinds travel by NAME, not ordinal — a string table in
// the header keeps the format robust to enum renumbering while still costing
// one varint per instruction. The graph travels separately: DecodeBinary
// re-binds the instruction stream to a caller-provided graph, checks the
// embedded fingerprint, and validates.
//
// Layout (all integers are unsigned varints unless noted):
//
//	magic "HAPB" (4 bytes) · version (1 byte)
//	nodes · len(graphHash) · graphHash bytes
//	op-name table:   count · (len · bytes)*
//	coll-name table: count · (len · bytes)*
//	instrs: count · instruction*
//
// Each instruction starts with a flags byte (bit0 comm, bit1 flopsScaled,
// bit2 has non-negative shard dim) and the ref; computations follow with an
// op-table index (and the shard dim when flagged), communications with a
// coll-table index, dim and dim2.
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"hap/internal/collective"
	"hap/internal/graph"
)

// binaryMagic and binaryVersion head every binary program. The version is
// bumped in lockstep with formatVersion: both formats embed the same
// fingerprint semantics.
var binaryMagic = [4]byte{'H', 'A', 'P', 'B'}

const binaryVersion = byte(formatVersion)

// HasBinaryMagic reports whether data starts with the magic EncodeBinary
// writes first.
func HasBinaryMagic(data []byte) bool {
	return len(data) >= len(binaryMagic) && [4]byte(data) == binaryMagic
}

const (
	binFlagComm     = 1 << 0
	binFlagScaled   = 1 << 1
	binFlagShardDim = 1 << 2
)

// EncodeBinary writes the program in the compact binary format.
func (p *Program) EncodeBinary(w io.Writer) error {
	b, err := p.AppendBinary(nil)
	if err == nil {
		_, err = w.Write(b)
	}
	return err
}

// AppendBinary appends the program in the compact binary format to b.
func (p *Program) AppendBinary(b []byte) ([]byte, error) {
	if p.Graph == nil {
		return b, fmt.Errorf("dist: encode binary: program has no graph")
	}
	// String tables: every kind used, in first-appearance order. A program
	// uses a handful of kinds, so a linear scan finds an entry's index.
	var opBuf [32]graph.OpKind
	var collBuf [8]collective.Kind
	ops, colls := opBuf[:0], collBuf[:0]
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.IsComm {
			if !slices.Contains(colls, in.Coll) {
				colls = append(colls, in.Coll)
			}
		} else if !slices.Contains(ops, in.Op) {
			ops = append(ops, in.Op)
		}
	}
	// A program takes about 4.5 bytes an instruction, so sizing for 6 leaves
	// room for a plan trailer (planwire.Append): the payload is one allocation.
	fp := graph.Fingerprint(p.Graph)
	b = slices.Grow(b, 64+len(fp)+6*len(p.Instrs))
	b = append(b, binaryMagic[:]...)
	b = append(b, binaryVersion)
	b = binary.AppendUvarint(b, uint64(p.Graph.NumNodes()))
	b = appendString(b, fp)
	b = binary.AppendUvarint(b, uint64(len(ops)))
	for _, op := range ops {
		b = appendString(b, op.String())
	}
	b = binary.AppendUvarint(b, uint64(len(colls)))
	for _, k := range colls {
		b = appendString(b, k.String())
	}

	b = binary.AppendUvarint(b, uint64(len(p.Instrs)))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		var flags byte
		if in.IsComm {
			flags |= binFlagComm
		}
		if in.FlopsScaled {
			flags |= binFlagScaled
		}
		if !in.IsComm && in.ShardDim >= 0 {
			flags |= binFlagShardDim
		}
		b = append(b, flags)
		b = binary.AppendUvarint(b, uint64(in.Ref))
		if in.IsComm {
			b = binary.AppendUvarint(b, uint64(slices.Index(colls, in.Coll)))
			b = binary.AppendUvarint(b, uint64(in.Dim))
			b = binary.AppendUvarint(b, uint64(in.Dim2))
		} else {
			b = binary.AppendUvarint(b, uint64(slices.Index(ops, in.Op)))
			if in.ShardDim >= 0 {
				b = binary.AppendUvarint(b, uint64(in.ShardDim))
			}
		}
	}
	return b, nil
}

// appendString appends s, length first.
func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// DecodeBinary reads a program written by EncodeBinary, binds it to g, and
// validates it: version, node count, the structural graph fingerprint (a
// plan cannot be silently re-bound to a graph it was not synthesized for —
// same topology with different shapes costs and shards differently), and
// Validate. Bytes after the program are ignored.
func DecodeBinary(r io.Reader, g *graph.Graph) (*Program, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("dist: decode binary: reading program: %w", err)
	}
	return DecodeBinaryWithFingerprint(data, g, "")
}

// readAll is io.ReadAll in one allocation when r knows how much is left
// (bytes.Reader, bytes.Buffer, strings.Reader).
func readAll(r io.Reader) ([]byte, error) {
	if l, ok := r.(interface{ Len() int }); ok {
		data := make([]byte, l.Len())
		_, err := io.ReadFull(r, data)
		return data, err
	}
	return io.ReadAll(r)
}

// errVarintOverflow reports a varint longer than 64 bits.
var errVarintOverflow = errors.New("varint overflows 64 bits")

// binReader walks a binary program held in memory.
type binReader struct{ b []byte }

func (r *binReader) byte() (byte, error) {
	if len(r.b) == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c, nil
}

func (r *binReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	switch {
	case n > 0:
		r.b = r.b[n:]
		return v, nil
	case n == 0:
		return 0, io.ErrUnexpectedEOF
	default:
		return 0, errVarintOverflow
	}
}

// str reads a length-prefixed string as a view of the payload. limit guards
// the length prefix, so a corrupt stream fails on the prefix, not the read.
func (r *binReader) str(limit uint64) ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > limit {
		return nil, fmt.Errorf("string length %d exceeds %d", n, limit)
	}
	if n > uint64(len(r.b)) {
		return nil, io.ErrUnexpectedEOF
	}
	s := r.b[:n]
	r.b = r.b[n:]
	return s, nil
}

// DecodeBinaryWithFingerprint is DecodeBinary over a payload already in
// memory. fp, when not empty, must be graph.Fingerprint(g) as g stands: the
// binding check then compares against it instead of hashing g again.
func DecodeBinaryWithFingerprint(data []byte, g *graph.Graph, fp string) (*Program, error) {
	fail := func(format string, args ...any) (*Program, error) {
		return nil, fmt.Errorf("dist: decode binary: "+format, args...)
	}
	if !HasBinaryMagic(data) {
		return fail("bad magic (not a binary program)")
	}
	r := binReader{data[len(binaryMagic):]}
	version, err := r.byte()
	if err != nil {
		return fail("reading version: %w", err)
	}
	if version != binaryVersion {
		return fail("unsupported program version %d (want %d)", version, binaryVersion)
	}
	nodes, err := r.uvarint()
	if err != nil {
		return fail("reading node count: %w", err)
	}
	if g == nil {
		return fail("no graph to bind the program to")
	}
	hash, err := r.str(1024)
	if err != nil {
		return fail("reading graph hash: %w", err)
	}
	if err := checkBinding(g, nodes, string(hash), fp); err != nil {
		return fail("%w", err)
	}

	// The name tables resolve to kinds in place: the names are views of the
	// payload, never copied.
	opCount, err := r.uvarint()
	if err != nil {
		return fail("reading op table size: %w", err)
	}
	if opCount > 4096 {
		return fail("op table size %d is implausible", opCount)
	}
	ops := make([]graph.OpKind, opCount)
	for i := range ops {
		name, err := r.str(256)
		if err != nil {
			return fail("reading op table entry %d: %w", i, err)
		}
		op, ok := graph.ParseOpKind(string(name))
		if !ok {
			return fail("unknown op %q", name)
		}
		ops[i] = op
	}
	collCount, err := r.uvarint()
	if err != nil {
		return fail("reading collective table size: %w", err)
	}
	if collCount > 4096 {
		return fail("collective table size %d is implausible", collCount)
	}
	colls := make([]collective.Kind, collCount)
	for i := range colls {
		name, err := r.str(256)
		if err != nil {
			return fail("reading collective table entry %d: %w", i, err)
		}
		k, ok := collective.ParseKind(string(name))
		if !ok {
			return fail("unknown collective %q", name)
		}
		colls[i] = k
	}

	count, err := r.uvarint()
	if err != nil {
		return fail("reading instruction count: %w", err)
	}
	// A program computes or communicates graph tensors; anything vastly
	// beyond a few instructions per node is corrupt input, not a plan.
	if count > uint64(16*(nodes+1)+1024) {
		return fail("instruction count %d is implausible for a %d-node graph", count, nodes)
	}
	// Every untrusted integer is compared in uint64 before it is converted:
	// a huge value must not wrap negative through int conversion and dodge
	// a range check (or, as a shard dim, read as -1: replicated). Each
	// instruction is filled in place, field by field.
	p := &Program{Graph: g, Instrs: make([]Instruction, count)}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		in.ShardDim = -1
		flags, err := r.byte()
		if err != nil {
			return fail("instr %d: reading flags: %w", i, err)
		}
		ref, err := r.uvarint()
		if err != nil {
			return fail("instr %d: reading ref: %w", i, err)
		}
		if ref >= nodes {
			return fail("instr %d references node e%d outside the %d-node graph", i, ref, nodes)
		}
		if flags&binFlagComm != 0 {
			ci, err1 := r.uvarint()
			dim, err2 := r.uvarint()
			dim2, err3 := r.uvarint()
			if err1 != nil || err2 != nil || err3 != nil {
				return fail("instr %d: truncated communication", i)
			}
			if ci >= uint64(len(colls)) {
				return fail("instr %d: collective index %d out of table range %d", i, ci, len(colls))
			}
			in.Ref, in.IsComm, in.Coll, in.Dim, in.Dim2 = graph.NodeID(ref), true, colls[ci], int(dim), int(dim2)
			continue
		}
		oi, err := r.uvarint()
		if err != nil {
			return fail("instr %d: reading op: %w", i, err)
		}
		if oi >= uint64(len(ops)) {
			return fail("instr %d: op index %d out of table range %d", i, oi, len(ops))
		}
		in.Ref, in.Op, in.FlopsScaled = graph.NodeID(ref), ops[oi], flags&binFlagScaled != 0
		if flags&binFlagShardDim != 0 {
			sd, err := r.uvarint()
			if err != nil {
				return fail("instr %d: reading shard dim: %w", i, err)
			}
			if rank := len(g.Node(in.Ref).Shape); sd >= uint64(rank) {
				return fail("instr %d: shard dim %d out of range for e%d's rank %d", i, sd, ref, rank)
			}
			in.ShardDim = int(sd)
		}
	}
	if err := p.Validate(); err != nil {
		return fail("%w", err)
	}
	return p, nil
}

// checkBinding is the plan→graph binding check: the program's node count and
// graph hash against g's. fp is graph.Fingerprint(g) when the caller holds
// it, "" to compute it here.
func checkBinding(g *graph.Graph, nodes uint64, hash, fp string) error {
	if nodes != uint64(g.NumNodes()) {
		return fmt.Errorf("program was synthesized for a %d-node graph, binding graph has %d", nodes, g.NumNodes())
	}
	if fp == "" {
		fp = graph.Fingerprint(g)
	}
	if hash != fp {
		return fmt.Errorf("graph fingerprint mismatch (program %s, binding graph %s): the plan was synthesized for a structurally different graph", hash, fp)
	}
	return nil
}
