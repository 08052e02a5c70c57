// The wire contract of the plan endpoint, pinned as one golden file: status,
// the plan headers and the body of every answer /v1/synthesize can give. The
// planner is the real one: plan bytes — and with them every ETag — are a
// function of the request alone.
// Regenerate with -update-contract, and only in a change that means to move
// response bytes.

package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hap"
	"hap/internal/cluster"
	"hap/internal/fleet"
	"hap/internal/graph"
	"hap/internal/obs"
)

var updateContract = flag.Bool("update-contract", false, "rewrite testdata/wire_contract.golden from this run")

// contractHeaders are the response headers the contract pins, in golden order.
// The golden labels the X-HAP headers in the spelling they were first
// written in, not the canonical spelling of CacheHeader and the other
// constants: Header.Get matches either, so the golden is the same file it
// was before the constants were made canonical. X-HAP-Plan-Version and
// X-HAP-Seed-Distance are no longer sent; they stay listed so the golden
// pins that no answer carries them.
var contractHeaders = []string{
	"Content-Type", "X-HAP-Cache", "ETag", "X-HAP-Plan-Version", "X-HAP-Seed-Distance", "Retry-After",
}

// contractNodeHeader labels fleet.NodeHeader in the golden, as above.
const contractNodeHeader = "X-HAP-Fleet-Node"

// digest stands in for a plan payload in the golden: length and hash pin the
// bytes without printing kilobytes of program.
func digest(b []byte) string {
	if len(b) == 0 {
		return "-"
	}
	return fmt.Sprintf("%d bytes sha256:%x", len(b), sha256.Sum256(b))
}

// contractLog accumulates the golden's rows.
type contractLog struct {
	t   *testing.T
	buf bytes.Buffer
}

// record appends one answer. Error envelopes and the need_body answer are
// printed whole; plan payloads as digests.
func (l *contractLog) record(name string, status int, h http.Header, body []byte) {
	l.t.Helper()
	fmt.Fprintf(&l.buf, "== %s\nstatus: %d\n", name, status)
	for _, k := range contractHeaders {
		if v := h.Get(k); v != "" {
			fmt.Fprintf(&l.buf, "%s: %s\n", k, v)
		}
	}
	if h.Get(fleet.NodeHeader) != "" {
		fmt.Fprintf(&l.buf, "%s: <peer>\n", contractNodeHeader)
	}
	var env ErrorEnvelope
	switch {
	case len(body) == 0:
		fmt.Fprintf(&l.buf, "body: -\n")
	case json.Unmarshal(body, &env) == nil && env.Code != "":
		fmt.Fprintf(&l.buf, "code: %s\nbody: %s", env.Code, body)
	default:
		fmt.Fprintf(&l.buf, "body: %s\n", digest(body))
	}
	l.buf.WriteByte('\n')
}

// do sends one request and records the answer under name.
func (l *contractLog) do(name, method, url string, body []byte, hdr map[string]string) *http.Response {
	l.t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		l.t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		l.t.Fatal(err)
	}
	l.record(name, resp.StatusCode, resp.Header, readAll(l.t, resp))
	return resp
}

func TestWireContract(t *testing.T) {
	l := &contractLog{t: t}
	binary := map[string]string{"Accept": BinaryPlanContentType}
	g, c := testGraph(t), testCluster()
	body := requestBody(t, g, c, RequestOptions{})
	key := clientKey(g, c, RequestOptions{})
	// Three devices where the other test clusters have two: its plans differ
	// in more than a ratio, so a plan served under the wrong key shows.
	wide := cluster.FromGPUs(cluster.DefaultNetwork(),
		cluster.MachineSpec{Type: cluster.V100, GPUs: 2},
		cluster.MachineSpec{Type: cluster.P100, GPUs: 1})

	newServer := func(cfg Config) (*Server, string) {
		t.Helper()
		s := New(cfg)
		srv := httptest.NewServer(s.Handler())
		t.Cleanup(srv.Close)
		return s, srv.URL
	}

	// The single-plan endpoint, every way a request can be answered.
	_, url := newServer(Config{})
	single := url + "/v1/synthesize"
	miss := l.do("synthesize miss", http.MethodPost, single, body, nil)
	l.do("synthesize hit", http.MethodPost, single, body, nil)
	l.do("synthesize binary hit", http.MethodPost, single, body, binary)
	l.do("synthesize key-only hit", http.MethodPost, single, keyBody(key), nil)
	l.do("synthesize key-only need_body", http.MethodPost, single, keyBody("not-a-key"), nil)
	l.do("synthesize 304", http.MethodPost, single, body, map[string]string{"If-None-Match": miss.Header.Get("ETag")})
	l.do("synthesize seeded miss: donor", http.MethodPost, single,
		requestBody(t, seedServeGraph(64, 96, 96, 96, 96, 96, 96, 32), c, RequestOptions{}), nil)
	l.do("synthesize seeded miss", http.MethodPost, single,
		requestBody(t, seedServeGraph(64, 96, 96, 112, 96, 96, 96, 32), c, RequestOptions{}), nil)

	// Requests rejected before a key exists.
	l.do("400 bad JSON", http.MethodPost, single, []byte("]["), nil)
	l.do("400 negative options", http.MethodPost, single, requestBody(t, g, c, RequestOptions{Segments: -1}), nil)
	l.do("400 missing graph", http.MethodPost, single, []byte(`{"cluster": {"version": 1}}`), nil)
	// Spellings encoding/json would take and the request reader refuses
	// (RFC 8259 §4, RFC 7493 §2.3); before, the second was a key-only hit.
	l.do("400 repeated member", http.MethodPost, single, []byte(`{"key":"`+key+`","key":"`+key+`"}`), nil)
	l.do("400 member in another case", http.MethodPost, single, []byte(`{"Key":"`+key+`"}`), nil)
	l.do("405 synthesize", http.MethodGet, single, nil, nil)
	_, small := newServer(Config{maxRequestBytes: 128})
	l.do("413 synthesize", http.MethodPost, small+"/v1/synthesize", body, nil)

	// A repeat body whose plan was evicted: it decodes to the same key, the
	// store no longer holds it, and the request is a miss like any other.
	_, tiny := newServer(Config{MaxCacheEntries: 1})
	l.do("eviction: fill", http.MethodPost, tiny+"/v1/synthesize", body, nil)
	l.do("eviction: evict", http.MethodPost, tiny+"/v1/synthesize", requestBody(t, g, wide, RequestOptions{}), nil)
	l.do("eviction: repeat body, store miss", http.MethodPost, tiny+"/v1/synthesize", body, nil)

	// A planner failure.
	_, failing := newServer(Config{Synthesize: func(context.Context, *graph.Graph, *cluster.Cluster, hap.Options) (*hap.Plan, error) {
		return nil, errors.New("search exhausted")
	}})
	l.do("422 synthesize", http.MethodPost, failing+"/v1/synthesize", body, nil)

	// The admission gate, while a held synthesis owns the only slot.
	started, release := make(chan struct{}), make(chan struct{})
	_, gated := newServer(Config{MaxInflightSynth: 1, Synthesize: func(ctx context.Context, g *graph.Graph, c *cluster.Cluster, opt hap.Options) (*hap.Plan, error) {
		close(started)
		<-release
		return hap.NewPlanner(c, hap.WithOptions(opt)).Plan(ctx, g)
	}})
	held := make(chan struct{})
	go func() {
		defer close(held)
		resp, err := http.Post(gated+"/v1/synthesize", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	l.do("429 synthesize", http.MethodPost, gated+"/v1/synthesize", requestBody(t, g, altCluster(), RequestOptions{}), nil)
	close(release)
	<-held

	// A fleet node that neither owns the key nor holds a replica relays the
	// owner's answers; a client that goes away mid-proxy is answered 499.
	proxyStarted, proxyRelease := make(chan struct{}, 1), make(chan struct{})
	slowBody := requestBody(t, g, thirdCluster(), RequestOptions{})
	slowFP := thirdCluster().Fingerprint()
	nodes := newFleetTrio(t, func(_ int, cfg *Config) {
		cfg.Synthesize = func(ctx context.Context, g *graph.Graph, c *cluster.Cluster, opt hap.Options) (*hap.Plan, error) {
			if c.Fingerprint() == slowFP {
				proxyStarted <- struct{}{}
				select {
				case <-proxyRelease:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return hap.NewPlanner(c, hap.WithOptions(opt)).Plan(ctx, g)
		}
	})
	bystander := func(key string) *fleetNode {
		t.Helper()
		set := nodes[0].s.cfg.Fleet.ReplicaSet(key)
		for _, n := range nodes {
			if !slices.Contains(set, n.url) {
				return n
			}
		}
		t.Fatalf("every node is in the replica set %v", set)
		return nil
	}
	relay := bystander(key).url + "/v1/synthesize"
	l.do("proxied miss", http.MethodPost, relay, body, nil)
	l.do("proxied hit", http.MethodPost, relay, body, nil)
	l.do("proxied binary hit", http.MethodPost, relay, body, binary)

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/synthesize", bytes.NewReader(slowBody)).WithContext(ctx)
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		bystander(clientKey(g, thirdCluster(), RequestOptions{})).s.Handler().ServeHTTP(rec, req)
	}()
	<-proxyStarted
	cancel()
	<-served
	close(proxyRelease)
	l.record("proxied, client cancelled mid-proxy", rec.Code, rec.Header(), rec.Body.Bytes())

	golden := filepath.Join("testdata", "wire_contract.golden")
	if *updateContract {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, l.buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.buf.String(); got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("wire contract moved at line %d:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("wire contract moved: %d lines, golden has %d", len(gotLines), len(wantLines))
	}
}

// Every header name the daemon and its fleet read or write is spelled
// canonically: Header.Get and Set then use the name as it is, where a
// non-canonical spelling costs each of them a rewritten copy of the key.
func TestHeaderNamesCanonical(t *testing.T) {
	for name, h := range map[string]string{
		"obs.TraceHeader":     obs.TraceHeader,
		"obs.SpansHeader":     obs.SpansHeader,
		"fleet.ForwardHeader": fleet.ForwardHeader,
		"fleet.NodeHeader":    fleet.NodeHeader,
		"serve.CacheHeader":   CacheHeader,
	} {
		if c := http.CanonicalHeaderKey(h); c != h {
			t.Errorf("%s = %q, want its canonical spelling %q", name, h, c)
		}
	}
}
