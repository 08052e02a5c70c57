package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"hap/internal/collective"
	"hap/internal/graph"
)

// ReferenceDecodeBinary is the binary program decoder as it was before it
// decoded in place: a bufio stream reader, and one input slice allocated
// per computation instruction. It is kept verbatim as the differential
// oracle for DecodeBinary (binary_oracle_test.go), the way lazysort_test.go
// keeps slices.SortFunc: both must give the same accept/reject decision and
// the same program on every payload, except where the reference misreads its
// bytes — a flagged shard dim of 2^64−1, which int conversion turns into −1
// (replicated).
func ReferenceDecodeBinary(r io.Reader, g *graph.Graph) (*Program, error) {
	fail := func(format string, args ...any) (*Program, error) {
		return nil, fmt.Errorf("dist: decode binary: "+format, args...)
	}
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fail("reading magic: %w", err)
	}
	if magic != binaryMagic {
		return fail("bad magic %q (not a binary program)", magic[:])
	}
	version, err := br.ReadByte()
	if err != nil {
		return fail("reading version: %w", err)
	}
	if version != binaryVersion {
		return fail("unsupported program version %d (want %d)", version, binaryVersion)
	}
	uv := func() (uint64, error) { return binary.ReadUvarint(br) }
	// cap guards length prefixes so a corrupt stream cannot drive huge
	// allocations before the content check fails.
	str := func(cap uint64) (string, error) {
		n, err := uv()
		if err != nil {
			return "", err
		}
		if n > cap {
			return "", fmt.Errorf("string length %d exceeds %d", n, cap)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}

	nodes, err := uv()
	if err != nil {
		return fail("reading node count: %w", err)
	}
	if g == nil {
		return fail("no graph to bind the program to")
	}
	if int(nodes) != g.NumNodes() {
		return fail("program was synthesized for a %d-node graph, binding graph has %d", nodes, g.NumNodes())
	}
	hash, err := str(1024)
	if err != nil {
		return fail("reading graph hash: %w", err)
	}
	if fp := graph.Fingerprint(g); hash != fp {
		return fail("graph fingerprint mismatch (program %s, binding graph %s): the plan was synthesized for a structurally different graph", hash, fp)
	}

	table := func(kind string) ([]string, error) {
		n, err := uv()
		if err != nil {
			return nil, fmt.Errorf("reading %s table size: %w", kind, err)
		}
		if n > 4096 {
			return nil, fmt.Errorf("%s table size %d is implausible", kind, n)
		}
		out := make([]string, n)
		for i := range out {
			if out[i], err = str(256); err != nil {
				return nil, fmt.Errorf("reading %s table entry %d: %w", kind, i, err)
			}
		}
		return out, nil
	}
	opNames, err := table("op")
	if err != nil {
		return fail("%v", err)
	}
	collNames, err := table("collective")
	if err != nil {
		return fail("%v", err)
	}
	ops := make([]graph.OpKind, len(opNames))
	for i, name := range opNames {
		op, ok := graph.ParseOpKind(name)
		if !ok {
			return fail("unknown op %q", name)
		}
		ops[i] = op
	}
	colls := make([]collective.Kind, len(collNames))
	for i, name := range collNames {
		k, ok := collective.ParseKind(name)
		if !ok {
			return fail("unknown collective %q", name)
		}
		colls[i] = k
	}

	count, err := uv()
	if err != nil {
		return fail("reading instruction count: %w", err)
	}
	// A program computes or communicates graph tensors; anything vastly
	// beyond a few instructions per node is corrupt input, not a plan.
	if count > uint64(16*(nodes+1)+1024) {
		return fail("instruction count %d is implausible for a %d-node graph", count, nodes)
	}
	p := &Program{Graph: g, Instrs: make([]Instruction, 0, count)}
	for i := uint64(0); i < count; i++ {
		flags, err := br.ReadByte()
		if err != nil {
			return fail("instr %d: reading flags: %w", i, err)
		}
		ref, err := uv()
		if err != nil {
			return fail("instr %d: reading ref: %w", i, err)
		}
		if flags&binFlagComm != 0 {
			ci, err1 := uv()
			dim, err2 := uv()
			dim2, err3 := uv()
			if err1 != nil || err2 != nil || err3 != nil {
				return fail("instr %d: truncated communication", i)
			}
			// Compare in uint64: a huge index must not wrap negative through
			// int conversion and dodge the bounds check.
			if ci >= uint64(len(colls)) {
				return fail("instr %d: collective index %d out of table range %d", i, ci, len(colls))
			}
			p.Instrs = append(p.Instrs, Comm(graph.NodeID(ref), colls[ci], int(dim), int(dim2)))
			continue
		}
		oi, err := uv()
		if err != nil {
			return fail("instr %d: reading op: %w", i, err)
		}
		if oi >= uint64(len(ops)) {
			return fail("instr %d: op index %d out of table range %d", i, oi, len(ops))
		}
		in := Instruction{Ref: graph.NodeID(ref), Op: ops[oi], ShardDim: -1, FlopsScaled: flags&binFlagScaled != 0}
		if flags&binFlagShardDim != 0 {
			sd, err := uv()
			if err != nil {
				return fail("instr %d: reading shard dim: %w", i, err)
			}
			in.ShardDim = int(sd)
		}
		p.Instrs = append(p.Instrs, in)
	}
	if err := p.Validate(); err != nil {
		return fail("%w", err)
	}
	return p, nil
}

// ReferenceEncodeBinary is the binary program encoder as it was before it
// appended to a byte slice: a bufio stream writer with varint closures, and
// the name tables indexed by two maps. It is kept verbatim as the oracle
// AppendBinary and planwire.Append are held to byte for byte
// (encode_oracle_test.go).
func ReferenceEncodeBinary(p *Program, w io.Writer) error {
	if p.Graph == nil {
		return fmt.Errorf("dist: encode binary: program has no graph")
	}
	bw := bufio.NewWriter(w)
	bw.Write(binaryMagic[:])
	bw.WriteByte(binaryVersion)
	var scratch [binary.MaxVarintLen64]byte
	uv := func(v uint64) {
		bw.Write(scratch[:binary.PutUvarint(scratch[:], v)])
	}
	str := func(s string) {
		uv(uint64(len(s)))
		bw.WriteString(s)
	}
	uv(uint64(p.Graph.NumNodes()))
	str(graph.Fingerprint(p.Graph))

	// String tables: every kind used, in first-appearance order.
	opIdx := map[graph.OpKind]uint64{}
	collIdx := map[collective.Kind]uint64{}
	var ops []string
	var colls []string
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.IsComm {
			if _, ok := collIdx[in.Coll]; !ok {
				collIdx[in.Coll] = uint64(len(colls))
				colls = append(colls, in.Coll.String())
			}
		} else if _, ok := opIdx[in.Op]; !ok {
			opIdx[in.Op] = uint64(len(ops))
			ops = append(ops, in.Op.String())
		}
	}
	uv(uint64(len(ops)))
	for _, s := range ops {
		str(s)
	}
	uv(uint64(len(colls)))
	for _, s := range colls {
		str(s)
	}

	uv(uint64(len(p.Instrs)))
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
		bw.WriteByte(flags)
		uv(uint64(in.Ref))
		if in.IsComm {
			uv(collIdx[in.Coll])
			uv(uint64(in.Dim))
			uv(uint64(in.Dim2))
		} else {
			uv(opIdx[in.Op])
			if in.ShardDim >= 0 {
				uv(uint64(in.ShardDim))
			}
		}
	}
	return bw.Flush()
}
