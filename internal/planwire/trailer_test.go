package planwire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// trailerFloats are the floats whose spelling turns on encoding/json's
// rules: the zeros, both sides of the 'f'/'e' boundaries at 1e-6 and 1e21,
// subnormals, one-digit negative exponents and the extremes.
var trailerFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3,
	1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 5e-7, 1e-9,
	1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 1.5e22,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308,
	math.MaxFloat64, -math.MaxFloat64,
}

// checkTrailer holds appendTrailer to json.Marshal on tr: the same bytes, or
// an error from both.
func checkTrailer(t *testing.T, tr Trailer) {
	t.Helper()
	want, wantErr := json.Marshal(tr)
	prefix := []byte("program")
	got, err := appendTrailer(bytes.Clone(prefix), tr)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%+v: appendTrailer error %v, json.Marshal error %v", tr, err, wantErr)
	}
	if err == nil && (!bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want)) {
		t.Fatalf("%+v:\nappendTrailer %s\njson.Marshal  %s", tr, got, want)
	}
}

// TestAppendTrailerMatchesMarshal holds the hand-written trailer to
// json.Marshal, its oracle, on the spelling-sensitive floats, on random bit
// patterns (every finite float64 is equally likely to be drawn by
// exponent), and on the shapes of ratios and segment_of a plan can carry.
func TestAppendTrailerMatchesMarshal(t *testing.T) {
	for _, v := range trailerFloats {
		checkTrailer(t, Trailer{Ratios: [][]float64{{v, -v}}, Cost: v})
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkTrailer(t, Trailer{Ratios: [][]float64{{0.5, v}}})
		checkTrailer(t, Trailer{Ratios: [][]float64{{1}}, Cost: v})
	}
	for _, tr := range []Trailer{
		{},
		{Ratios: [][]float64{}},
		{Ratios: [][]float64{nil, {}, {1}}},
		{Ratios: [][]float64{{1}}, SegmentOf: []int{}},
		{Ratios: [][]float64{{1}, {0.25, 0.75}}, SegmentOf: []int{0, 0, 1, -1, 1 << 40}, Cost: 0.0123},
	} {
		checkTrailer(t, tr)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		row := make([]float64, 1+rng.Intn(8))
		for j := range row {
			row[j] = math.Float64frombits(rng.Uint64())
		}
		tr := Trailer{Ratios: [][]float64{row}, Cost: rng.NormFloat64()}
		if i%2 == 1 {
			tr.SegmentOf = []int{rng.Intn(4), rng.Intn(4)}
		}
		checkTrailer(t, tr)
	}
}
