package tensor

import (
	"fmt"
	"math"
)

// MatMul computes the matrix product of two rank-2 tensors: (n,k)·(k,m) → (n,m).
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 operands, got %v and %v", a.shape, b.shape))
	}
	n, k := a.shape[0], a.shape[1]
	k2, m := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions mismatch: %v · %v", a.shape, b.shape))
	}
	out := New(n, m)
	for i := 0; i < n; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*m : (i+1)*m]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.data[p*m : (p+1)*m]
			for j := 0; j < m; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// Transpose returns the rank-2 transpose of a.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose requires rank-2 operand, got %v", a.shape))
	}
	n, m := a.shape[0], a.shape[1]
	out := New(m, n)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			out.data[j*n+i] = a.data[i*m+j]
		}
	}
	return out
}

func elementwiseBinary(a, b *Tensor, name string, f func(x, y float64) float64) *Tensor {
	if !a.shape.Equal(b.shape) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", name, a.shape, b.shape))
	}
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = f(a.data[i], b.data[i])
	}
	return out
}

// Add returns the element-wise sum of same-shaped tensors.
func Add(a, b *Tensor) *Tensor {
	return elementwiseBinary(a, b, "Add", func(x, y float64) float64 { return x + y })
}

// Sub returns the element-wise difference of same-shaped tensors.
func Sub(a, b *Tensor) *Tensor {
	return elementwiseBinary(a, b, "Sub", func(x, y float64) float64 { return x - y })
}

// Mul returns the element-wise (Hadamard) product of same-shaped tensors.
func Mul(a, b *Tensor) *Tensor {
	return elementwiseBinary(a, b, "Mul", func(x, y float64) float64 { return x * y })
}

// Scale multiplies every element by s.
func Scale(a *Tensor, s float64) *Tensor {
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] * s
	}
	return out
}

// Map applies f to every element.
func Map(a *Tensor, f func(float64) float64) *Tensor {
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = f(a.data[i])
	}
	return out
}

// ReLU applies max(0, x) element-wise.
func ReLU(a *Tensor) *Tensor {
	return Map(a, func(x float64) float64 { return math.Max(0, x) })
}

// ReLUGrad returns g masked by the positive entries of x (dReLU/dx · g).
func ReLUGrad(x, g *Tensor) *Tensor {
	return elementwiseBinary(x, g, "ReLUGrad", func(xv, gv float64) float64 {
		if xv > 0 {
			return gv
		}
		return 0
	})
}

// Sigmoid applies the logistic function element-wise.
func Sigmoid(a *Tensor) *Tensor {
	return Map(a, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) })
}

// SigmoidGrad returns dSigmoid/dx · g where x is the op input.
func SigmoidGrad(x, g *Tensor) *Tensor {
	return elementwiseBinary(x, g, "SigmoidGrad", func(xv, gv float64) float64 {
		s := 1 / (1 + math.Exp(-xv))
		return s * (1 - s) * gv
	})
}

// GeLU applies the tanh-approximated Gaussian error linear unit element-wise.
func GeLU(a *Tensor) *Tensor {
	return Map(a, geluScalar)
}

func geluScalar(x float64) float64 {
	const c = 0.7978845608028654 // sqrt(2/pi)
	return 0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x)))
}

// GeLUGrad returns dGeLU/dx · g using a central finite difference of the
// same approximation, which is accurate enough for equivalence checks.
func GeLUGrad(x, g *Tensor) *Tensor {
	return elementwiseBinary(x, g, "GeLUGrad", func(xv, gv float64) float64 {
		const h = 1e-6
		return (geluScalar(xv+h) - geluScalar(xv-h)) / (2 * h) * gv
	})
}

// Sum reduces all elements to a scalar (shape []).
func Sum(a *Tensor) *Tensor {
	s := 0.0
	for _, v := range a.data {
		s += v
	}
	out := New()
	out.data[0] = s
	return out
}

// SumDim reduces dimension d, removing it from the shape.
func SumDim(a *Tensor, d int) *Tensor {
	if d < 0 || d >= a.Rank() {
		panic(fmt.Sprintf("tensor: SumDim dim %d out of range for %v", d, a.shape))
	}
	outShape := make(Shape, 0, a.Rank()-1)
	outShape = append(outShape, a.shape[:d]...)
	outShape = append(outShape, a.shape[d+1:]...)
	out := New(outShape...)
	outer := 1
	for i := 0; i < d; i++ {
		outer *= a.shape[i]
	}
	mid := a.shape[d]
	inner := 1
	for i := d + 1; i < a.Rank(); i++ {
		inner *= a.shape[i]
	}
	for o := 0; o < outer; o++ {
		for m := 0; m < mid; m++ {
			base := (o*mid + m) * inner
			obase := o * inner
			for in := 0; in < inner; in++ {
				out.data[obase+in] += a.data[base+in]
			}
		}
	}
	return out
}

// Softmax applies the softmax function along the last dimension.
func Softmax(a *Tensor) *Tensor {
	if a.Rank() == 0 {
		panic("tensor: Softmax requires rank >= 1")
	}
	out := New(a.shape...)
	last := a.shape[a.Rank()-1]
	rows := len(a.data) / last
	for r := 0; r < rows; r++ {
		row := a.data[r*last : (r+1)*last]
		orow := out.data[r*last : (r+1)*last]
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for i, v := range row {
			e := math.Exp(v - maxv)
			orow[i] = e
			sum += e
		}
		for i := range orow {
			orow[i] /= sum
		}
	}
	return out
}

// Concat concatenates tensors along dimension d. All other dimensions must
// match.
func Concat(d int, parts ...*Tensor) *Tensor {
	if len(parts) == 0 {
		panic("tensor: Concat requires at least one part")
	}
	base := parts[0].shape
	total := 0
	for _, p := range parts {
		if p.Rank() != len(base) {
			panic("tensor: Concat rank mismatch")
		}
		for i := range base {
			if i != d && p.shape[i] != base[i] {
				panic(fmt.Sprintf("tensor: Concat dim %d mismatch: %v vs %v", i, p.shape, base))
			}
		}
		total += p.shape[d]
	}
	outShape := base.Clone()
	outShape[d] = total
	out := New(outShape...)

	outer := 1
	for i := 0; i < d; i++ {
		outer *= base[i]
	}
	inner := 1
	for i := d + 1; i < len(base); i++ {
		inner *= base[i]
	}
	rowLen := total * inner
	off := 0
	for _, p := range parts {
		pMid := p.shape[d]
		for o := 0; o < outer; o++ {
			src := p.data[o*pMid*inner : (o+1)*pMid*inner]
			dst := out.data[o*rowLen+off*inner : o*rowLen+(off+pMid)*inner]
			copy(dst, src)
		}
		off += pMid
	}
	return out
}

// SplitSizes splits a along dimension d into parts of the given sizes, which
// must sum to a.Dim(d).
func SplitSizes(a *Tensor, d int, sizes []int) []*Tensor {
	sum := 0
	for _, s := range sizes {
		sum += s
	}
	if sum != a.shape[d] {
		panic(fmt.Sprintf("tensor: SplitSizes %v does not cover dim %d of %v", sizes, d, a.shape))
	}
	outer := 1
	for i := 0; i < d; i++ {
		outer *= a.shape[i]
	}
	inner := 1
	for i := d + 1; i < a.Rank(); i++ {
		inner *= a.shape[i]
	}
	rowLen := a.shape[d] * inner

	parts := make([]*Tensor, len(sizes))
	off := 0
	for pi, sz := range sizes {
		shape := a.shape.Clone()
		shape[d] = sz
		p := New(shape...)
		for o := 0; o < outer; o++ {
			src := a.data[o*rowLen+off*inner : o*rowLen+(off+sz)*inner]
			copy(p.data[o*sz*inner:(o+1)*sz*inner], src)
		}
		parts[pi] = p
		off += sz
	}
	return parts
}

// Ones returns a tensor of ones with the given shape.
func Ones(shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = 1
	}
	return t
}
