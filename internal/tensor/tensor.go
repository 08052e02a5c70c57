// Package tensor implements a small dense tensor engine used by HAP's
// numeric runtime. It is the stand-in for the CUDA kernels the paper runs
// through PyTorch: the synthesizer never touches numeric data, but the
// runtime executes both the single-device graph and the synthesized
// distributed program on real numbers to validate semantic equivalence.
//
// Tensors are row-major dense float64 arrays of arbitrary rank. All
// operations allocate their results; in-place variants are not needed for
// validation workloads, which are intentionally small.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Shape describes the extent of each tensor dimension.
type Shape []int

// NumElements returns the product of all dimensions. The empty shape is a
// scalar with one element.
func (s Shape) NumElements() int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Clone returns a copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// Equal reports whether two shapes have identical rank and extents.
func (s Shape) Equal(t Shape) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

func (s Shape) String() string {
	return fmt.Sprintf("%v", []int(s))
}

// Tensor is a dense row-major float64 array.
type Tensor struct {
	shape Shape
	data  []float64
}

// New returns a zero-filled tensor of the given shape.
func New(shape ...int) *Tensor {
	s := Shape(shape).Clone()
	return &Tensor{shape: s, data: make([]float64, s.NumElements())}
}

// FromData wraps data into a tensor of the given shape. The data slice is
// used directly (not copied); len(data) must equal the shape's element count.
func FromData(data []float64, shape ...int) *Tensor {
	s := Shape(shape).Clone()
	if len(data) != s.NumElements() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), s))
	}
	return &Tensor{shape: s, data: data}
}

// Rand returns a tensor with entries drawn uniformly from [-1, 1) using rng.
func Rand(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = rng.Float64()*2 - 1
	}
	return t
}

// Shape returns the tensor's shape. Callers must not mutate it.
func (t *Tensor) Shape() Shape { return t.shape }

// Data returns the underlying storage. Callers must not resize it.
func (t *Tensor) Data() []float64 { return t.data }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the extent of dimension d.
func (t *Tensor) Dim(d int) int { return t.shape[d] }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 {
	return t.data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// AllClose reports whether both tensors have the same shape and all elements
// differ by at most atol + rtol*|b|.
func AllClose(a, b *Tensor, rtol, atol float64) bool {
	if !a.shape.Equal(b.shape) {
		return false
	}
	for i := range a.data {
		diff := math.Abs(a.data[i] - b.data[i])
		if diff > atol+rtol*math.Abs(b.data[i]) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest element-wise absolute difference between
// two same-shaped tensors.
func MaxAbsDiff(a, b *Tensor) float64 {
	if !a.shape.Equal(b.shape) {
		return math.Inf(1)
	}
	m := 0.0
	for i := range a.data {
		if d := math.Abs(a.data[i] - b.data[i]); d > m {
			m = d
		}
	}
	return m
}
