// Stable JSON serialization of single-device graphs — the wire format a
// hap-serve client ships its model in. Op kinds travel by name (not ordinal)
// so the format survives enum renumbering; decoding validates the result so
// a malformed request cannot crash later pipeline stages. Everything
// synthesis depends on is carried: shapes, numeric attributes, the loss and
// gradient designations, and the autodiff bookkeeping (ForwardCount,
// PrimalOf) that the segmenter consumes.
//
// The wire form is the one encoding/json writes for graphJSON, the struct
// the test oracle keeps (export_test.go), but nothing reflects over it.
// AppendJSON and Encode write its compact and indented bytes directly, and
// TestGraphWireBytes holds them to encoding/json's. DecodeBytes and
// DecodeFrom read it in one pass on package wirejson's tokenizer
// (jsonread.go): every spelling encoding/json takes into graphJSON, except
// three it would take and the reader refuses — a member named twice, a
// member name in another case, null as an array element. FuzzGraphDecode
// holds the reader to encoding/json on every other input.

package graph

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"unicode/utf8"

	"hap/internal/wirejson"
)

// wireVersion is bumped on incompatible changes to the serialized graph form.
const wireVersion = 1

// graphFields are a wire graph's graph-level members, held until the nodes
// are read and checked.
type graphFields struct {
	Version      int
	Loss         int // -1 when omitted: clients hand-write this format
	Params       []int
	Grads        [][2]int // [param, grad] pairs
	ForwardCount int
	PrimalOf     [][2]int // [node, primal] pairs
	SegmentOf    []int
}

// AppendJSON appends the graph's compact wire form to b: byte for byte what
// json.Marshal writes for its graphJSON (field order, omitempty, a nil shape
// as null, encoding/json's float format, HTML-safe strings). A NaN or ±Inf
// scale or flops count is an error, as it is to encoding/json.
func (g *Graph) AppendJSON(b []byte) ([]byte, error) {
	w := jsonWriter{b: b}
	err := w.graph(g)
	return w.b, err
}

// Encode writes the graph as indented (diffable, deterministic) JSON: the
// bytes a json.Encoder with SetIndent("", "  ") writes for its graphJSON,
// trailing newline included.
func (g *Graph) Encode(w io.Writer) error {
	jw := jsonWriter{b: make([]byte, 0, 256*len(g.Nodes)+256), indent: true}
	if err := jw.graph(g); err != nil {
		return err
	}
	_, err := w.Write(append(jw.b, '\n'))
	return err
}

// jsonWriter appends a graph's wire form, compact or in json.Indent's
// layout with a two-space indent.
type jsonWriter struct {
	b      []byte
	indent bool
	depth  int
}

func (w *jsonWriter) newline() {
	if w.indent {
		w.b = append(w.b, '\n')
		for i := 0; i < w.depth; i++ {
			w.b = append(w.b, ' ', ' ')
		}
	}
}

// open starts an object or array.
func (w *jsonWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
}

// close ends an object or array; an empty one stays on its line ("[]").
func (w *jsonWriter) close(c byte, empty bool) {
	w.depth--
	if !empty {
		w.newline()
	}
	w.b = append(w.b, c)
}

// elem starts the i-th element of the open object or array.
func (w *jsonWriter) elem(i int) {
	if i > 0 {
		w.b = append(w.b, ',')
	}
	w.newline()
}

// key starts the i-th member of the open object, named k.
func (w *jsonWriter) key(i int, k string) {
	w.elem(i)
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, '"', ':')
	if w.indent {
		w.b = append(w.b, ' ')
	}
}

func (w *jsonWriter) int(v int) { w.b = strconv.AppendInt(w.b, int64(v), 10) }

// float writes v the way encoding/json does (wirejson.AppendFloat).
func (w *jsonWriter) float(v float64) error {
	b, ok := wirejson.AppendFloat(w.b, v)
	if !ok {
		return fmt.Errorf("graph: encode: unsupported value %v", v)
	}
	w.b = b
	return nil
}

// str writes s quoted. A string needing any escape — a quote, a backslash,
// a control or non-ASCII byte, or an HTML-sensitive <, > or & — is left to
// encoding/json, whose HTML-safe escaping the wire form uses.
func (w *jsonWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			w.b = append(w.b, q...)
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

// ints writes an int array, or null for a nil slice.
func ints[T ~int](w *jsonWriter, vs []T) {
	if vs == nil {
		w.b = append(w.b, "null"...)
		return
	}
	w.open('[')
	for i, v := range vs {
		w.elem(i)
		w.int(int(v))
	}
	w.close(']', len(vs) == 0)
}

// pairs writes id-sorted [k, v] pairs.
func (w *jsonWriter) pairs(prs [][2]int) {
	w.open('[')
	for i, pr := range prs {
		w.elem(i)
		ints(w, pr[:])
	}
	w.close(']', false)
}

// sortedPairs flattens an id→id map into key-sorted pairs.
func sortedPairs(m map[NodeID]NodeID) [][2]int {
	if len(m) == 0 {
		return nil
	}
	return sortPairsInto(make([][2]int, 0, len(m)), m)
}

// sortPairsInto is sortedPairs writing into buf's backing array, which it
// outgrows only when m holds more pairs than buf's capacity.
func sortPairsInto(buf [][2]int, m map[NodeID]NodeID) [][2]int {
	buf = buf[:0]
	for k, v := range m {
		buf = append(buf, [2]int{int(k), int(v)})
	}
	slices.SortFunc(buf, func(a, b [2]int) int { return cmp.Compare(a[0], b[0]) })
	return buf
}

func (w *jsonWriter) graph(g *Graph) error {
	w.open('{')
	w.key(0, "version")
	w.int(wireVersion)
	w.key(1, "nodes")
	if len(g.Nodes) == 0 {
		w.b = append(w.b, "null"...)
	} else {
		w.open('[')
		for i := range g.Nodes {
			w.elem(i)
			if err := w.node(&g.Nodes[i]); err != nil {
				return fmt.Errorf("%w (node %d)", err, i)
			}
		}
		w.close(']', false)
	}
	w.key(1, "loss")
	w.int(int(g.Loss))
	if len(g.Params) > 0 {
		w.key(1, "params")
		ints(w, g.Params)
	}
	if len(g.Grads) > 0 {
		w.key(1, "grads")
		w.pairs(sortedPairs(g.Grads))
	}
	if g.ForwardCount != 0 {
		w.key(1, "forward_count")
		w.int(g.ForwardCount)
	}
	if len(g.PrimalOf) > 0 {
		w.key(1, "primal_of")
		w.pairs(sortedPairs(g.PrimalOf))
	}
	if len(g.SegmentOf) > 0 {
		w.key(1, "segment_of")
		ints(w, g.SegmentOf)
	}
	w.close('}', false)
	return nil
}

func (w *jsonWriter) node(n *Node) error {
	w.open('{')
	w.key(0, "op")
	w.str(n.Kind.String())
	if len(n.Inputs) > 0 {
		w.key(1, "inputs")
		ints(w, n.Inputs)
	}
	w.key(1, "shape")
	ints(w, n.Shape)
	if n.Name != "" {
		w.key(1, "name")
		w.str(n.Name)
	}
	if n.ScaleFactor != 0 {
		w.key(1, "scale")
		if err := w.float(n.ScaleFactor); err != nil {
			return err
		}
	}
	if n.FlopsPerSample != 0 {
		w.key(1, "flops_per_sample")
		if err := w.float(n.FlopsPerSample); err != nil {
			return err
		}
	}
	w.key(1, "batch_dim")
	w.int(n.BatchDim)
	w.close('}', false)
	return nil
}

// Decode reads a graph written by Encode and validates it structurally, so
// downstream consumers (synthesizer, runtime) can assume well-formedness.
func Decode(r io.Reader) (*Graph, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok { // *bytes.Reader, *strings.Reader, *bytes.Buffer
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	return DecodeBytes(buf.Bytes())
}

// DecodeBytes decodes the graph whose JSON starts data (anything after it
// is ignored, as json.Decoder ignores it) and validates it like Decode.
func DecodeBytes(data []byte) (*Graph, error) {
	return DecodeFrom(&wirejson.Reader{Data: data})
}

// DecodeFrom reads the graph at r's position in one pass, straight into
// Nodes whose Inputs and Shape share slabs, leaves r past it and validates
// it like Decode. A failure is also left in r.Err, so the read of an
// enclosing document stops there.
func DecodeFrom(r *wirejson.Reader) (*Graph, error) {
	w := wireReader{Reader: *r}
	gf := graphFields{Loss: -1}
	g := New()
	// Every node spells "op" once: counting them sizes the node slice (and
	// the name ends) in one allocation each.
	if n := countOps(r.Data[r.I:]); n > 0 {
		g.Nodes, w.nameEnds = make([]Node, 0, n), make([]int, 0, n)
	}
	ok := w.graph(&gf, g)
	if *r = w.Reader; !ok {
		r.Err = fmt.Errorf("graph: decode: %w", r.Err)
	} else if err := gf.finish(g); err != nil {
		r.Err = err
	}
	if r.Err != nil {
		return nil, r.Err
	}
	return g, nil
}

// countOps is bytes.Count(data, []byte(`"op"`)), keyed on the pattern's
// 'p', which a graph body holds a few times per node, instead of its '"',
// which it holds a dozen times: each 'p' is checked against its neighbours,
// and a match overlapping the last one counted (the shared '"' of `"op"op"`)
// is not counted, as bytes.Count does not count it.
func countOps(data []byte) int {
	n, end := 0, 0 // end: where the last counted match ends
	for i := 2; i < len(data)-1; i++ {
		j := bytes.IndexByte(data[i:len(data)-1], 'p')
		if j < 0 {
			break
		}
		if i += j; i-2 >= end && data[i-2] == '"' && data[i-1] == 'o' && data[i+1] == '"' {
			n++
			end = i + 2
		}
	}
	return n
}

// checkNode range-checks node i of a graph of n nodes.
func checkNode(i int, node *Node, n int) error {
	for _, d := range node.Shape {
		if d < 0 {
			return fmt.Errorf("graph: decode: node %d has negative dimension %d", i, d)
		}
	}
	if node.BatchDim < -1 {
		return fmt.Errorf("graph: decode: node %d has batch_dim %d", i, node.BatchDim)
	}
	for _, u := range node.Inputs {
		if u < 0 || int(u) >= n {
			return fmt.Errorf("graph: decode: node %d references input %d of %d nodes", i, u, n)
		}
	}
	return nil
}

// finish range-checks gf and the nodes read into g, moves gf onto g and
// validates the whole.
func (gf *graphFields) finish(g *Graph) error {
	if gf.Version != wireVersion {
		return fmt.Errorf("graph: decode: unsupported graph version %d (want %d)", gf.Version, wireVersion)
	}
	n := len(g.Nodes)
	if n == 0 {
		g.Nodes = nil // "nodes": [] reads as no nodes, as omitted does
	}
	for i := range g.Nodes {
		if err := checkNode(i, &g.Nodes[i], n); err != nil {
			return err
		}
	}
	inRange := func(id int) bool { return id >= 0 && id < n }
	loss := gf.Loss
	if loss != -1 && !inRange(loss) {
		return fmt.Errorf("graph: decode: loss %d of %d nodes", loss, n)
	}
	g.Loss = NodeID(loss)
	if len(gf.Grads) > 0 {
		g.Grads = make(map[NodeID]NodeID, len(gf.Grads))
	}
	if len(gf.PrimalOf) > 0 {
		g.PrimalOf = make(map[NodeID]NodeID, len(gf.PrimalOf))
	}
	for _, p := range gf.Params {
		if !inRange(p) {
			return fmt.Errorf("graph: decode: parameter %d of %d nodes", p, n)
		}
		g.Params = append(g.Params, NodeID(p))
	}
	for _, pr := range gf.Grads {
		if !inRange(pr[0]) || !inRange(pr[1]) {
			return fmt.Errorf("graph: decode: gradient pair %v of %d nodes", pr, n)
		}
		g.Grads[NodeID(pr[0])] = NodeID(pr[1])
	}
	if gf.ForwardCount < 0 || gf.ForwardCount > n {
		return fmt.Errorf("graph: decode: forward_count %d of %d nodes", gf.ForwardCount, n)
	}
	g.ForwardCount = gf.ForwardCount
	for _, pr := range gf.PrimalOf {
		if !inRange(pr[0]) || !inRange(pr[1]) {
			return fmt.Errorf("graph: decode: primal pair %v of %d nodes", pr, n)
		}
		g.PrimalOf[NodeID(pr[0])] = NodeID(pr[1])
	}
	g.SegmentOf = gf.SegmentOf
	for _, s := range g.SegmentOf {
		if s < 0 {
			return fmt.Errorf("graph: decode: negative segment %d", s)
		}
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("graph: decode: %w", err)
	}
	// Declared shapes must agree with what each op would actually produce:
	// synthesis rules and the numeric runtime trust them, and an
	// inconsistent shape (e.g. a scalar "softmax" of a matrix) panics deep
	// in the pipeline. Kinds whose shape is declared keep it. Each inferred
	// shape is appended to one stack buffer (a rank past its length spills).
	var buf [4]int
	for i := range g.Nodes {
		n := &g.Nodes[i]
		switch want, err := InferShape(n.Kind, g.operands(n), buf[:0]); {
		case err == ErrDeclaredShape:
		case err != nil:
			return fmt.Errorf("graph: decode: node %d (%v) has inconsistent input shapes: %w", i, n.Kind, err)
		case !n.Shape.Equal(want):
			return fmt.Errorf("graph: decode: node %d (%v) declares shape %v, op produces %v", i, n.Kind, n.Shape, want.Clone())
		}
	}
	return nil
}

// positiveZero maps -0 to 0. The wire spells both, Encode omits either, and
// Fingerprint hashes a float's bits: a kept sign would give one graph two
// cache keys, one before and one after a round trip.
func positiveZero(v float64) float64 {
	if v == 0 {
		return 0
	}
	return v
}
