package graph

import (
	"fmt"

	"hap/internal/wirejson"
)

// wireReader is DecodeFrom's one-pass reader of a graph's wire form, built
// on the tokenizer the request envelope shares (package wirejson): it takes
// every spelling encoding/json takes into the wire form's struct but the
// three wirejson refuses, and reads the nodes straight into Nodes.
type wireReader struct {
	wirejson.Reader

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

func (r *wireReader) ints(name string, into *[]int) bool {
	out := []int{}
	ok := r.Array(name, func() bool {
		v, ok := r.Int()
		out = append(out, v)
		return ok
	})
	*into = out
	return ok
}

// pairs reads [k, v] pairs. As encoding/json fills a [2]int, a short pair
// is padded with zeros and an element past the second is read and dropped.
func (r *wireReader) pairs(name string, into *[][2]int) bool {
	return r.Array(name, func() bool {
		var p [2]int
		n := 0
		ok := r.Array(name, func() bool {
			if n++; n > len(p) {
				return r.Skip()
			}
			var ok bool
			p[n-1], ok = r.Int()
			return ok
		})
		*into = append(*into, p)
		return ok
	})
}

var graphKeys = []string{"version", "nodes", "loss", "params", "grads", "forward_count", "primal_of", "segment_of"}

// graph reads the graph object: its nodes into g, the graph-level members
// into gf for the checks DecodeFrom runs once the whole graph is read.
func (r *wireReader) graph(gf *graphFields, g *Graph) bool {
	ok := r.Object(graphKeys, func(k int) bool {
		var ok bool
		switch graphKeys[k] {
		case "version":
			gf.Version, ok = r.Int()
		case "nodes":
			ok = r.Array("nodes", func() bool { return r.node(g) })
		case "loss":
			gf.Loss, ok = r.Int()
		case "params":
			ok = r.ints("params", &gf.Params)
		case "grads":
			ok = r.pairs("grads", &gf.Grads)
		case "forward_count":
			gf.ForwardCount, ok = r.Int()
		case "primal_of":
			ok = r.pairs("primal_of", &gf.PrimalOf)
		default: // "segment_of"
			ok = r.ints("segment_of", &gf.SegmentOf)
		}
		return ok
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
	var op []byte
	ok := r.Object(nodeKeys, func(k int) bool {
		var ok bool
		switch nodeKeys[k] {
		case "op":
			op, ok = r.Str()
		case "inputs":
			ok = r.Array("inputs", func() bool {
				v, ok := r.Int()
				r.inputs.add(NodeID(v))
				return ok
			})
			if in := r.inputs.cut(); len(in) > 0 {
				n.Inputs = in
			}
		case "shape":
			ok = r.Array("shape", func() bool {
				v, ok := r.Int()
				r.dims.add(v)
				return ok
			})
			if n.Shape = r.dims.cut(); n.Shape == nil {
				n.Shape = []int{} // "[]" is an empty shape, not an absent one
			}
		case "name":
			var name []byte
			name, ok = r.Str()
			r.names = append(r.names, name...)
		case "scale":
			n.ScaleFactor, ok = r.Float()
			n.ScaleFactor = positiveZero(n.ScaleFactor)
		case "flops_per_sample":
			n.FlopsPerSample, ok = r.Float()
			n.FlopsPerSample = positiveZero(n.FlopsPerSample)
		default: // "batch_dim"
			n.BatchDim, ok = r.Int()
		}
		return ok
	})
	if ok {
		if n.Kind, ok = opByName[string(op)]; !ok {
			r.Fail(fmt.Errorf("unknown op %q", op))
		}
	}
	if !ok {
		r.Err = fmt.Errorf("node %d: %w", len(g.Nodes), r.Err)
		return false
	}
	r.nameEnds = append(r.nameEnds, len(r.names))
	g.Nodes = append(g.Nodes, n)
	return true
}
