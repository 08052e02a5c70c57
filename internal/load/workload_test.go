package load

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
)

// TestCorpusDeterministic: the same (graphs, clusters, seed) triple yields
// byte-identical request bodies — the property that makes two loadgen runs
// share cache keys with each other and with a warmup pass.
func TestCorpusDeterministic(t *testing.T) {
	a, err := NewCorpus(4, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCorpus(4, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.Items() != 8 || b.Items() != 8 {
		t.Fatalf("Items = %d/%d, want 8 (4 graphs × 2 clusters)", a.Items(), b.Items())
	}
	for i := 0; i < a.Items(); i++ {
		if !bytes.Equal(a.SingleBody(i), b.SingleBody(i)) {
			t.Fatalf("single body %d differs between same-seed corpora", i)
		}
	}
	c, err := NewCorpus(4, 2, 43)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.SingleBody(0), c.SingleBody(0)) {
		t.Error("different seeds produced identical graphs")
	}
	// Bodies must be valid request JSON with both fields.
	var req struct {
		Graph   json.RawMessage `json:"graph"`
		Cluster json.RawMessage `json:"cluster"`
	}
	if err := json.Unmarshal(a.SingleBody(0), &req); err != nil || len(req.Graph) == 0 || len(req.Cluster) == 0 {
		t.Errorf("single body malformed: %v", err)
	}
}

// TestCorpusDigest pins the bytes of a corpus: the graph family is drawn
// by models.RandomTraining, which the differential harness shares, and a
// change to its draws moves every loadgen run's cache keys.
func TestCorpusDigest(t *testing.T) {
	const want = "1cd3de52cee37011f211612377663f07209bff353ea64171e7144a0f75dbb8c2"
	c, err := NewCorpus(6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i := 0; i < c.Items(); i++ {
		h.Write(c.SingleBody(i))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("sha256 of the %d bodies = %s, want %s", c.Items(), got, want)
	}
}

// TestCorpusValidatesArgs: bad shapes are rejected up front.
func TestCorpusValidatesArgs(t *testing.T) {
	if _, err := NewCorpus(0, 1, 1); err == nil {
		t.Error("zero graphs accepted")
	}
	if _, err := NewCorpus(1, 0, 1); err == nil {
		t.Error("zero clusters accepted")
	}
	if _, err := NewCorpus(1, MaxClusters+1, 1); err == nil {
		t.Error("over-palette clusters accepted")
	}
}

// TestGeneratorDeterministicAndZipf: same seed → same Spec sequence;
// popularity is head-heavy (zipf) rather than uniform; the class mix
// roughly follows its weights.
func TestGeneratorDeterministicAndZipf(t *testing.T) {
	corpus, err := NewCorpus(16, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	g1 := NewGenerator(corpus, Mix{}, 1.3, 99)
	g2 := NewGenerator(corpus, Mix{}, 1.3, 99)
	const n = 20000
	counts := make([]int, corpus.Items())
	classes := map[Class]int{}
	for i := 0; i < n; i++ {
		s1, s2 := g1.Next(), g2.Next()
		if s1 != s2 {
			t.Fatalf("draw %d: same-seed generators diverge: %+v vs %+v", i, s1, s2)
		}
		if s1.Item < 0 || s1.Item >= corpus.Items() {
			t.Fatalf("item %d out of corpus range", s1.Item)
		}
		if s1.Class == Cancel && s1.CancelAfter <= 0 {
			t.Fatal("cancel spec without a cancel point")
		}
		counts[s1.Item]++
		classes[s1.Class]++
	}
	// Zipf head: the most popular item dominates a uniform share by far.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if uniform := n / corpus.Items(); max < 4*uniform {
		t.Errorf("hottest item drew %d of %d; want ≥ 4× the uniform share %d (zipf head)", max, n, uniform)
	}
	// Every class with default-mix weight saw traffic, in rough proportion.
	mix := DefaultMix()
	total := mix.total()
	for class, weight := range map[Class]int{
		Single: mix.Single, Conditional: mix.Conditional, Cancel: mix.Cancel,
	} {
		want := n * weight / total
		got := classes[class]
		if got < want/2 || got > want*2 {
			t.Errorf("class %v drew %d, want ~%d", class, got, want)
		}
	}
}

// TestGeneratorSingleItemCorpus: a 1-item corpus must not panic the zipf
// sampler (imax must stay >= 1).
func TestGeneratorSingleItemCorpus(t *testing.T) {
	corpus, err := NewCorpus(1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(corpus, Mix{Single: 1}, 1.2, 5)
	for i := 0; i < 100; i++ {
		if s := g.Next(); s.Item != 0 {
			t.Fatalf("1-item corpus drew item %d", s.Item)
		}
	}
}

// TestParseMix: every accepted non-empty mix gives the generator a positive
// draw range. Weights near MaxInt64 once wrapped the total negative (Next
// panicked in Intn) or to zero (the run silently used DefaultMix).
func TestParseMix(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mix
		ok   bool
	}{
		{"", Mix{}, true},
		{"single=55, cond=20,cancel=5", DefaultMix(), true},
		{"cond=1", Mix{Conditional: 1}, true},
		{"single=1000000,cond=1000000,cancel=1000000",
			Mix{Single: 1000000, Conditional: 1000000, Cancel: 1000000}, true},
		{"single=9223372036854775807,cond=1", Mix{}, false},
		{"single=9223372036854775807,cancel=9223372036854775807,cond=2", Mix{}, false},
		{"single=1000001", Mix{}, false},
		{"single=-1,cond=1", Mix{}, false},
		{"single=0,cancel=0", Mix{}, false},
		{"single", Mix{}, false},
		{"batch=1", Mix{}, false},
		{"single=3,single_bin=1", Mix{}, false},
		{"cond=1.5", Mix{}, false},
	} {
		m, err := ParseMix(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseMix(%q): err = %v, want ok = %v", tc.in, err, tc.ok)
			continue
		}
		if m != tc.want {
			t.Errorf("ParseMix(%q) = %+v, want %+v", tc.in, m, tc.want)
		}
		if err != nil && strings.Contains(err.Error(), "unknown class") && !strings.Contains(err.Error(), "(known: single, cond, cancel)") {
			t.Errorf("ParseMix(%q): %v, want the known classes listed", tc.in, err)
		}
		if err == nil && tc.in != "" && m.total() <= 0 {
			t.Errorf("ParseMix(%q) accepted a mix with total %d", tc.in, m.total())
		}
	}
}
