// Package load is the hap-serve load-generation harness: a deterministic
// workload generator, closed- and open-loop drivers, a log-bucketed latency
// histogram, and SLO assertions over the resulting report. cmd/hap-loadgen
// is the CLI; CI runs it against a single daemon and a 3-node fleet, each
// profile gated by its -slo string in the workflow.
//
// The workload is a seeded corpus of (graph, cluster) pairs whose request
// popularity is zipf-distributed — production plan traffic is not i.i.d.:
// a handful of (model, cluster) pairs dominate, with a long cold tail —
// plus a request mix covering the daemon's real surface: synthesis,
// conditional fetch with If-None-Match, and requests cancelled mid-flight. Everything is deterministic under a seed, so
// a latency regression reproduces.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"hap"
	"hap/internal/models"
)

// Class is one request class of the workload mix.
type Class uint8

const (
	// Single is POST /v1/synthesize with the corpus body and no Accept
	// header: the daemon answers every plan request with the binary payload.
	Single Class = iota
	// Conditional revalidates with If-None-Match using the last seen ETag;
	// a warm server answers 304 with no body.
	Conditional
	// Cancel abandons the request mid-flight (context cancelled a few
	// milliseconds in), exercising the daemon's disconnect handling.
	Cancel

	numClasses
)

// String names the class; the names double as report class keys.
func (c Class) String() string {
	switch c {
	case Single:
		return "single"
	case Conditional:
		return "cond"
	case Cancel:
		return "cancel"
	}
	return "unknown"
}

// Mix weighs the request classes. Zero-valued fields get no traffic; a
// zero-valued Mix means DefaultMix.
type Mix struct {
	Single      int
	Conditional int
	Cancel      int
}

// DefaultMix is a plausible production blend: mostly fetches, a
// conditional-revalidation slice, and a trickle of abandoned requests.
func DefaultMix() Mix {
	return Mix{Single: 55, Conditional: 20, Cancel: 5}
}

func (m Mix) weights() [numClasses]int {
	return [numClasses]int{m.Single, m.Conditional, m.Cancel}
}

func (m Mix) total() int {
	t := 0
	for _, w := range m.weights() {
		t += w
	}
	return t
}

// maxMixWeight bounds one class's parsed weight, so a mix's total can never
// wrap to a negative or zero draw range.
const maxMixWeight = 1_000_000

// ParseMix reads "class=weight,..." using the report class names (single,
// cond, cancel); each weight is an integer in [0, 1000000]. An
// empty string parses to the zero Mix, which means DefaultMix; a non-empty
// one must give some class a weight.
func ParseMix(s string) (Mix, error) {
	var m Mix
	if s == "" {
		return m, nil
	}
	fields := map[string]*int{
		Single.String():      &m.Single,
		Conditional.String(): &m.Conditional,
		Cancel.String():      &m.Cancel,
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return Mix{}, fmt.Errorf("load: mix entry %q: want class=weight", part)
		}
		p, known := fields[strings.TrimSpace(name)]
		if !known {
			return Mix{}, fmt.Errorf("load: mix entry %q: unknown class %q (known: %s, %s, %s)", part, name, Single, Conditional, Cancel)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w < 0 || w > maxMixWeight {
			return Mix{}, fmt.Errorf("load: mix entry %q: weight must be an integer in [0, %d]", part, maxMixWeight)
		}
		*p = w
	}
	if m == (Mix{}) {
		return Mix{}, fmt.Errorf("load: mix %q leaves every class at zero weight", s)
	}
	return m, nil
}

// Spec is one generated request: its class and its corpus coordinates.
type Spec struct {
	Class Class
	// Item indexes the corpus (graph, cluster) pair.
	Item int
	// CancelAfter is the mid-flight abandonment point for Cancel requests.
	CancelAfter time.Duration
}

// Generator draws a deterministic request sequence: same corpus, mix, and
// seed → the same Specs in the same order. Not safe for concurrent use —
// each closed-loop worker owns one (distinct seeds), and the open-loop
// dispatcher draws before handing off to a firing goroutine.
type Generator struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	w     [numClasses]int
	total int
}

// NewGenerator returns a generator over the corpus with the given mix.
// zipfS is the zipf skew (must be > 1; larger = hotter head). A zero-total
// mix falls back to DefaultMix.
func NewGenerator(c *Corpus, mix Mix, zipfS float64, seed int64) *Generator {
	if mix.total() == 0 {
		mix = DefaultMix()
	}
	if zipfS <= 1 {
		zipfS = 1.2
	}
	rng := rand.New(rand.NewSource(seed))
	return &Generator{
		rng:   rng,
		zipf:  rand.NewZipf(rng, zipfS, 1, uint64(c.Items()-1)),
		w:     mix.weights(),
		total: mix.total(),
	}
}

// Next draws the next request.
func (g *Generator) Next() Spec {
	s := Spec{Item: int(g.zipf.Uint64())}
	pick := g.rng.Intn(g.total)
	for c, w := range g.w {
		if pick < w {
			s.Class = Class(c)
			break
		}
		pick -= w
	}
	if s.Class == Cancel {
		// Abandon 0.5–4.5ms in: late enough to usually reach the daemon,
		// early enough to catch most syntheses mid-flight.
		s.CancelAfter = 500*time.Microsecond + time.Duration(g.rng.Int63n(int64(4*time.Millisecond)))
	}
	return s
}

// Corpus is the seeded request universe: Graphs random small training
// graphs × a palette of cluster shapes, with every wire body pre-marshalled
// so the drivers spend their cycles on HTTP, not JSON.
type Corpus struct {
	singles [][]byte // graph-major: item = graph*clusters + cluster
}

// clusterPalette is the fixed set of cluster shapes the corpus draws from:
// heterogeneous across machines, homogeneous, a machine-level mix, and a
// two-type per-GPU pair — the same families the differential harness plans
// on.
func clusterPalette() []*hap.Cluster {
	return []*hap.Cluster{
		hap.PerGPU(hap.MachineSpec{Type: hap.V100, GPUs: 1}, hap.MachineSpec{Type: hap.P100, GPUs: 1}),
		hap.PerGPU(hap.MachineSpec{Type: hap.P100, GPUs: 2}),
		hap.Heterogeneous(hap.MachineSpec{Type: hap.V100, GPUs: 2}, hap.MachineSpec{Type: hap.P100, GPUs: 2}),
		hap.PerGPU(hap.MachineSpec{Type: hap.A100, GPUs: 1}, hap.MachineSpec{Type: hap.P100, GPUs: 1}),
	}
}

// MaxClusters is the size of the corpus cluster palette.
const MaxClusters = 4

// NewCorpus builds a deterministic corpus of graphs × clusters request
// bodies. graphs must be positive; clusters in [1, MaxClusters]. The same
// (graphs, clusters, seed) triple always yields byte-identical bodies, so
// two loadgen runs against the same daemon share cache keys.
func NewCorpus(graphs, clusters int, seed int64) (*Corpus, error) {
	if graphs <= 0 {
		return nil, fmt.Errorf("load: corpus needs at least one graph")
	}
	if clusters <= 0 || clusters > MaxClusters {
		return nil, fmt.Errorf("load: corpus clusters must be in [1, %d], got %d", MaxClusters, clusters)
	}
	palette := clusterPalette()[:clusters]
	clusterJSON := make([]json.RawMessage, clusters)
	for i, cl := range palette {
		var b bytes.Buffer
		if err := cl.Encode(&b); err != nil {
			return nil, fmt.Errorf("load: encoding cluster %d: %w", i, err)
		}
		clusterJSON[i] = b.Bytes()
	}
	rng := rand.New(rand.NewSource(seed))
	c := &Corpus{}
	for gi := 0; gi < graphs; gi++ {
		var gb bytes.Buffer
		if err := models.RandomTraining(rng).Encode(&gb); err != nil {
			return nil, fmt.Errorf("load: encoding graph %d: %w", gi, err)
		}
		graphJSON := json.RawMessage(gb.Bytes())
		for _, cj := range clusterJSON {
			body, err := json.Marshal(struct {
				Graph   json.RawMessage `json:"graph"`
				Cluster json.RawMessage `json:"cluster"`
			}{graphJSON, cj})
			if err != nil {
				return nil, err
			}
			c.singles = append(c.singles, body)
		}
	}
	return c, nil
}

// Items returns the number of (graph, cluster) pairs.
func (c *Corpus) Items() int { return len(c.singles) }

// SingleBody returns item i's pre-marshalled /v1/synthesize body.
func (c *Corpus) SingleBody(i int) []byte { return c.singles[i] }
