package graph

import (
	"strconv"
	"unicode/utf8"

	"hap/internal/tensor"
)

// wireReader is DecodePrefix's one-pass reader of the canonical graph form.
// Each method reports whether it recognised what it read; the first false
// abandons the read, and the caller hands the bytes to encoding/json. It
// accepts only what encoding/json decodes the same way into graphJSON:
// strict JSON, each known key spelled exactly and at most once, strings
// without escapes, ints without fraction or exponent, no null.
type wireReader struct {
	data []byte
	i    int

	// inputs and dims are the slabs every node's Inputs and Shape are cut
	// from; names collects the node names, which become one string once the
	// last node is read.
	inputs   slab[NodeID]
	dims     slab[int]
	names    []byte
	nameEnds []int
}

// slabChunk is the smallest chunk a slab allocates.
const slabChunk = 512

// slab hands out slices cut from shared chunks. A run is the values added
// since the last cut; a chunk that fills mid-run moves only the run to a new
// chunk, so earlier cuts keep theirs.
type slab[T any] struct {
	buf   []T
	start int
}

func (s *slab[T]) add(v T) {
	if len(s.buf) == cap(s.buf) {
		run := len(s.buf) - s.start
		buf := make([]T, run, max(2*run, slabChunk))
		copy(buf, s.buf[s.start:])
		s.buf, s.start = buf, 0
	}
	s.buf = append(s.buf, v)
}

// cut ends the current run and returns it, capped so that appending to it
// never reaches the next run.
func (s *slab[T]) cut() []T {
	out := s.buf[s.start:len(s.buf):len(s.buf)]
	s.start = len(s.buf)
	return out
}

func (r *wireReader) space() {
	for ; r.i < len(r.data); r.i++ {
		switch r.data[r.i] {
		case ' ', '\t', '\n', '\r':
		default:
			return
		}
	}
}

// next skips space and consumes c if it comes next.
func (r *wireReader) next(c byte) bool {
	r.space()
	if r.i < len(r.data) && r.data[r.i] == c {
		r.i++
		return true
	}
	return false
}

// str reads a string that needs no unescaping: no backslash, no control
// byte, valid UTF-8. The bytes alias data.
func (r *wireReader) str() ([]byte, bool) {
	if !r.next('"') {
		return nil, false
	}
	start, ascii := r.i, true
	for ; r.i < len(r.data); r.i++ {
		switch c := r.data[r.i]; {
		case c == '"':
			s := r.data[start:r.i]
			r.i++
			return s, ascii || utf8.Valid(s)
		case c == '\\' || c < ' ':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// key reads an object key and its colon.
func (r *wireReader) key() ([]byte, bool) {
	k, ok := r.str()
	return k, ok && r.next(':')
}

// digits consumes a run of decimal digits and reports its length.
func (r *wireReader) digits() int {
	start := r.i
	for r.i < len(r.data) && '0' <= r.data[r.i] && r.data[r.i] <= '9' {
		r.i++
	}
	return r.i - start
}

// int reads an integer: no fraction, no exponent, at most 18 digits (so it
// fits an int64; a longer one is left to encoding/json).
func (r *wireReader) int() (int, bool) {
	r.space()
	neg := r.i < len(r.data) && r.data[r.i] == '-'
	if neg {
		r.i++
	}
	start := r.i
	n := r.digits()
	if n == 0 || n > 18 || (n > 1 && r.data[start] == '0') {
		return 0, false
	}
	if r.i < len(r.data) {
		if c := r.data[r.i]; c == '.' || c == 'e' || c == 'E' {
			return 0, false
		}
	}
	var v int64
	for _, c := range r.data[start:r.i] {
		v = 10*v + int64(c-'0')
	}
	if neg {
		v = -v
	}
	if int64(int(v)) != v {
		return 0, false
	}
	return int(v), true
}

// float reads a JSON number and parses it as encoding/json does.
func (r *wireReader) float() (float64, bool) {
	r.space()
	start := r.i
	if r.i < len(r.data) && r.data[r.i] == '-' {
		r.i++
	}
	intStart := r.i
	if n := r.digits(); n == 0 || (n > 1 && r.data[intStart] == '0') {
		return 0, false
	}
	if r.i < len(r.data) && r.data[r.i] == '.' {
		r.i++
		if r.digits() == 0 {
			return 0, false
		}
	}
	if r.i < len(r.data) && (r.data[r.i] == 'e' || r.data[r.i] == 'E') {
		r.i++
		if r.i < len(r.data) && (r.data[r.i] == '+' || r.data[r.i] == '-') {
			r.i++
		}
		if r.digits() == 0 {
			return 0, false
		}
	}
	v, err := strconv.ParseFloat(string(r.data[start:r.i]), 64)
	return v, err == nil
}

// array reads a JSON array, calling elem for each element.
func (r *wireReader) array(elem func() bool) bool {
	if !r.next('[') {
		return false
	}
	if r.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !r.next(',') {
			return r.next(']')
		}
	}
}

// object reads a JSON object, calling member with each key; member reads
// the value. seen holds one bit per key of want, so a repeated or unknown
// key is not recognised.
func (r *wireReader) object(want []string, member func(k int) bool) bool {
	if !r.next('{') {
		return false
	}
	if r.next('}') {
		return true
	}
	var seen uint
	for {
		name, ok := r.key()
		if !ok {
			return false
		}
		k := 0
		for k < len(want) && want[k] != string(name) {
			k++
		}
		if k == len(want) || seen&(1<<k) != 0 || !member(k) {
			return false
		}
		seen |= 1 << k
		if !r.next(',') {
			return r.next('}')
		}
	}
}

func (r *wireReader) ints(into *[]int) bool {
	out := []int{}
	ok := r.array(func() bool {
		v, ok := r.int()
		out = append(out, v)
		return ok
	})
	*into = out
	return ok
}

func (r *wireReader) pairs(into *[][2]int) bool {
	return r.array(func() bool {
		var p [2]int
		var ok bool
		if !r.next('[') {
			return false
		}
		if p[0], ok = r.int(); !ok || !r.next(',') {
			return false
		}
		if p[1], ok = r.int(); !ok || !r.next(']') {
			return false
		}
		*into = append(*into, p)
		return true
	})
}

var graphKeys = []string{"version", "nodes", "loss", "params", "grads", "forward_count", "primal_of", "segment_of"}

// graph reads the graph object: its nodes into g, the graph-level fields
// into gj for the checks DecodePrefix shares with encoding/json's path.
func (r *wireReader) graph(gj *graphJSON, g *Graph) bool {
	ok := r.object(graphKeys, func(k int) bool {
		switch graphKeys[k] {
		case "version":
			var ok bool
			gj.Version, ok = r.int()
			return ok
		case "nodes":
			return r.array(func() bool { return r.node(g) })
		case "loss":
			v, ok := r.int()
			gj.Loss = &v
			return ok
		case "params":
			return r.ints(&gj.Params)
		case "grads":
			return r.pairs(&gj.Grads)
		case "forward_count":
			var ok bool
			gj.ForwardCount, ok = r.int()
			return ok
		case "primal_of":
			return r.pairs(&gj.PrimalOf)
		default: // "segment_of"
			return r.ints(&gj.SegmentOf)
		}
	})
	if !ok {
		return false
	}
	if len(r.names) > 0 {
		names, from := string(r.names), 0
		for i, end := range r.nameEnds {
			g.Nodes[i].Name = names[from:end]
			from = end
		}
	}
	return true
}

var nodeKeys = []string{"op", "inputs", "shape", "name", "scale", "flops_per_sample", "batch_dim"}

// node reads one node object and appends it to g.Nodes.
func (r *wireReader) node(g *Graph) bool {
	n := Node{ID: NodeID(len(g.Nodes)), BatchDim: -1}
	hasOp := false
	ok := r.object(nodeKeys, func(k int) bool {
		switch nodeKeys[k] {
		case "op":
			name, ok := r.str()
			n.Kind, hasOp = opByName[string(name)]
			return ok && hasOp
		case "inputs":
			ok := r.array(func() bool {
				v, ok := r.int()
				r.inputs.add(NodeID(v))
				return ok
			})
			if in := r.inputs.cut(); len(in) > 0 {
				n.Inputs = in
			}
			return ok
		case "shape":
			ok := r.array(func() bool {
				v, ok := r.int()
				r.dims.add(v)
				return ok
			})
			if n.Shape = tensor.Shape(r.dims.cut()); n.Shape == nil {
				n.Shape = tensor.Shape{} // "[]" is an empty shape, not an absent one
			}
			return ok
		case "name":
			name, ok := r.str()
			r.names = append(r.names, name...)
			return ok
		case "scale":
			v, ok := r.float()
			n.ScaleFactor = positiveZero(v)
			return ok
		case "flops_per_sample":
			v, ok := r.float()
			n.FlopsPerSample = positiveZero(v)
			return ok
		default: // "batch_dim"
			var ok bool
			n.BatchDim, ok = r.int()
			return ok
		}
	})
	if !ok || !hasOp {
		return false
	}
	r.nameEnds = append(r.nameEnds, len(r.names))
	g.Nodes = append(g.Nodes, n)
	return true
}
