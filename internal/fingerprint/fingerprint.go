// Package fingerprint is the shared content-hashing helper behind
// graph.Fingerprint and cluster.Fingerprint, and the one derivation of the
// plan cache key built from them (PlanKey). Both hashes key the serve plan
// cache and the plan→graph binding check, so they must evolve in lockstep;
// keeping the byte-level scheme in one place prevents drift.
//
// The key is wire contract: a client may send it instead of a request body
// (POST /v1/synthesize {"key": ...}), so its rendering is pinned by golden
// tests. Collision exposure: the graph half of the key and the binding check
// hap.ReadProgramBinary runs on every plan it loads are the same 64-bit
// FNV-1a of the same fields. A key-first request therefore adds no exposure
// the full-body path does not already have: there, too, two graphs that
// collide share one cache entry, and the binding check (being the same hash)
// cannot tell them apart. Widening one means widening both.
package fingerprint

import (
	"math"
	"math/bits"
	"strconv"
)

// FNV-1a 64-bit parameters (the hash/fnv New64a function).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hasher accumulates ints and floats into a stable 64-bit content hash:
// FNV-1a 64 over each value's 8 little-endian bytes, computed inline so a
// Hasher is a plain value and hashing allocates nothing.
type Hasher struct {
	h uint64
}

// New returns an empty Hasher (FNV-64a).
func New() Hasher {
	return Hasher{h: fnvOffset64}
}

// primePow[k] is fnvPrime64^k (mod 2^64): what FNV-1a multiplies by over a
// run of k zero bytes, whose xors change nothing.
var primePow = func() (t [9]uint64) {
	t[0] = 1
	for k := 1; k < len(t); k++ {
		t[k] = t[k-1] * fnvPrime64
	}
	return t
}()

// word mixes the 8 little-endian bytes of v. It is FNV-1a's xor and
// multiply per byte, except that each run of zero bytes is one multiply by
// primePow of its length: x^0 = x, and wrapping multiplication is
// associative, so the 64 bits are the byte-at-a-time loop's. Most words a
// graph feeds it are small ints and round floats, mostly zero bytes: a word
// below 256 costs two multiplies instead of eight, a zero word one.
func (h *Hasher) word(v uint64) {
	x := h.h
	left := 8 // bytes of v not yet mixed
	for v != 0 {
		if z := bits.TrailingZeros64(v) >> 3; z > 0 {
			x *= primePow[z]
			v >>= 8 * z
			left -= z
		}
		x ^= v & 0xff
		x *= fnvPrime64
		v >>= 8
		left--
	}
	h.h = x * primePow[left]
}

// Int mixes a signed integer into the hash.
func (h *Hasher) Int(v int) { h.word(uint64(int64(v))) }

// Float mixes a float64 into the hash by its exact bit pattern.
func (h *Hasher) Float(v float64) { h.word(math.Float64bits(v)) }

// Sum renders the accumulated hash as 16 hex digits.
func (h *Hasher) Sum() string {
	const digits = "0123456789abcdef"
	var b [16]byte
	v := h.h
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// Sum64 returns the accumulated hash as a raw 64-bit value, for callers that
// combine or compare sub-hashes numerically (graph segment sub-fingerprints).
func (h *Hasher) Sum64() uint64 {
	return h.h
}

// Options are the planner options that participate in a plan cache key. The
// field set mirrors the wire "options" object of the synthesize endpoints
// (serve.RequestOptions, client.Options): both convert to this type, so a
// field added on one side and not here fails to compile.
type Options struct {
	Segments int
}

// Sig renders the options slice of a plan cache key. The similarity index
// shares it: a donor plan must have been synthesized under the same options
// to be worth seeding from.
func (o Options) Sig() string {
	return string(o.appendSig(make([]byte, 0, 24)))
}

func (o Options) appendSig(b []byte) []byte {
	// The planner segments a graph only when asked for more than one
	// segment, so 0 and 1 plan alike and sign alike, as s0. A negative count
	// keeps its own slot: the daemon refuses it, so no key-only request may
	// find it a plan.
	seg := o.Segments
	if seg == 1 {
		seg = 0
	}
	b = append(b, 's')
	b = strconv.AppendInt(b, int64(seg), 10)
	// The retired max_iterations, exact_search and optimize options' slots,
	// at the values every request now plans under: keys are wire contract
	// and name persisted files.
	return append(b, ":i0:xfalse:otrue"...)
}

// PlanKey is the content address of a plan: what the graph computes
// (graph.Fingerprint), what the cluster can do (Cluster.Fingerprint), and how
// the planner was asked to run. It keys the daemon's plan store, routes the
// request on the fleet ring, and is what a key-first client request carries —
// the daemon (from a decoded body) and the client (from its in-memory graph)
// must derive the same string, so both call this function and nothing else.
func PlanKey(graphFP, clusterFP string, o Options) string {
	b := make([]byte, 0, len(graphFP)+len(clusterFP)+26)
	b = append(b, graphFP...)
	b = append(b, ':')
	b = append(b, clusterFP...)
	b = append(b, ':')
	return string(o.appendSig(b))
}
