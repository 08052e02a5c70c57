package fingerprint

import "testing"

// wordBytewise is FNV-1a over v's 8 little-endian bytes one byte at a time:
// the loop word replaced, kept as its reference.
func wordBytewise(x, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= fnvPrime64
		v >>= 8
	}
	return x
}

// word's zero-run multiplies give the byte-at-a-time loop's 64 bits on
// every word whose bytes come from {0x00, 0x01, 0x80, 0xff} (every pattern
// of zero runs, at both ends of a byte's range) and on every word that is
// one byte at any offset, each from several starting states.
func TestWordMatchesBytewise(t *testing.T) {
	states := []uint64{fnvOffset64, 0, 1, ^uint64(0), 0x8000000000000000, 0x0123456789abcdef}
	check := func(v uint64) {
		for _, s := range states {
			h := Hasher{h: s}
			h.word(v)
			if want := wordBytewise(s, v); h.h != want {
				t.Fatalf("word(%#016x) from state %#016x = %#016x, byte at a time %#016x", v, s, h.h, want)
			}
		}
	}
	alphabet := [4]uint64{0x00, 0x01, 0x80, 0xff}
	for code := 0; code < 1<<16; code++ {
		var v uint64
		for k := 0; k < 8; k++ {
			v |= alphabet[code>>(2*k)&3] << (8 * k)
		}
		check(v)
	}
	for off := 0; off < 64; off += 8 {
		for b := uint64(0); b < 256; b++ {
			check(b << off)
		}
	}
}
