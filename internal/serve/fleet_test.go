package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hap"
	"hap/internal/cluster"
	"hap/internal/fleet"
	"hap/internal/graph"
)

// switchHandler lets an httptest.Server start before the serve.Server that
// will back it exists — the node's advertise URL is only known after the
// listener binds, and the fleet config needs that URL.
type switchHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (sw *switchHandler) set(h http.Handler) {
	sw.mu.Lock()
	sw.h = h
	sw.mu.Unlock()
}

func (sw *switchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw.mu.Lock()
	h := sw.h
	sw.mu.Unlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// fleetNode is one member of an in-process fleet.
type fleetNode struct {
	url   string
	srv   *httptest.Server
	s     *Server
	synth atomic.Int64 // syntheses this node actually ran
}

// newFleetTrio boots a 3-node in-process fleet: three loopback servers, each
// with its own serve.Server, cache, and counted synthesis stub, all agreeing
// on the same membership. mutate, when non-nil, adjusts each node's Config
// before New (e.g. to gate the synthesis stub).
func newFleetTrio(t *testing.T, mutate func(i int, cfg *Config)) []*fleetNode {
	t.Helper()
	nodes := make([]*fleetNode, 3)
	switches := make([]*switchHandler, 3)
	urls := make([]string, 3)
	for i := range nodes {
		switches[i] = &switchHandler{}
		srv := httptest.NewServer(switches[i])
		t.Cleanup(srv.Close)
		nodes[i] = &fleetNode{url: srv.URL, srv: srv}
		urls[i] = srv.URL
	}
	for i, n := range nodes {
		fl, err := fleet.New(fleet.Config{Self: n.url, Peers: urls, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		node := n
		cfg := Config{
			Fleet: fl,
			Synthesize: func(ctx context.Context, g *graph.Graph, c *cluster.Cluster, opt hap.Options) (*hap.Plan, error) {
				node.synth.Add(1)
				return planWith(g, c, opt)
			},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		n.s = New(cfg)
		switches[i].set(n.s.Handler())
	}
	return nodes
}

// postV1 hits /v1/synthesize and returns status, the cache header, the fleet
// node header, and the body.
func postV1(t *testing.T, url string, body []byte) (int, string, string, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-HAP-Cache"), resp.Header.Get(fleet.NodeHeader), b
}

func totalSyntheses(nodes []*fleetNode) int64 {
	var n int64
	for _, node := range nodes {
		n += node.synth.Load()
	}
	return n
}

// ownerIndex returns the index of the node that owns key, and the indexes of
// every other node.
func ownerIndex(t *testing.T, nodes []*fleetNode, key string) (owner int, others []int) {
	t.Helper()
	ownerURL := nodes[0].s.cfg.Fleet.Owner(key)
	owner = -1
	for i, n := range nodes {
		if n.url == ownerURL {
			owner = i
		} else {
			others = append(others, i)
		}
	}
	if owner == -1 {
		t.Fatalf("owner %q is not one of the trio", ownerURL)
	}
	return owner, others
}

// TestFleetCrossNodeSingleFlight is the fleet acceptance test: N identical
// concurrent requests fanned across all three nodes synthesize exactly once
// (on the ring owner, whose single-flight group the other nodes join by
// proxying), every caller gets byte-identical plans, and after the herd the
// owner's death still leaves the plan readable from a replica.
func TestFleetCrossNodeSingleFlight(t *testing.T) {
	const n = 12
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	nodes := newFleetTrio(t, func(i int, cfg *Config) {
		inner := cfg.Synthesize
		cfg.Synthesize = func(ctx context.Context, g *graph.Graph, c *cluster.Cluster, opt hap.Options) (*hap.Plan, error) {
			// Hold the first (and, if the fleet works, only) synthesis open
			// until the whole herd is in flight.
			once.Do(func() { close(started) })
			<-release
			return inner(ctx, g, c, opt)
		}
	})
	g, c := testGraph(t), testCluster()
	body := requestBody(t, g, c, RequestOptions{})
	key := cacheKey(g, c, RequestOptions{})
	owner, others := ownerIndex(t, nodes, key)

	var wg sync.WaitGroup
	plans := make([][]byte, n)
	statuses := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _, _, plans[i] = postV1(t, nodes[i%3].url, body)
		}(i)
	}
	<-started
	// The herd is piling in; give the stragglers a beat to reach the owner's
	// flight group, then let the one synthesis finish.
	time.Sleep(200 * time.Millisecond)
	close(release)
	wg.Wait()

	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("client %d: status %d: %s", i, statuses[i], plans[i])
		}
		if !bytes.Equal(plans[0], plans[i]) {
			t.Errorf("client %d received a different plan", i)
		}
	}
	if got := totalSyntheses(nodes); got != 1 {
		t.Errorf("fleet ran %d syntheses for %d identical concurrent requests, want exactly 1", got, n)
	}
	if nodes[owner].synth.Load() != 1 {
		t.Errorf("the one synthesis did not run on the ring owner")
	}
	// The non-owners answered their misses by proxying; Stats must show it.
	for _, i := range others {
		st := nodes[i].s.Stats()
		if st.Fleet == nil {
			t.Fatalf("node %d Stats has no fleet slice", i)
		}
		if st.Fleet.Proxied == 0 {
			t.Errorf("node %d proxied no requests despite not owning the key", i)
		}
	}
	// Replication: with Replicas=2 exactly one non-owner holds a copy.
	ownerStats := nodes[owner].s.Stats()
	if ownerStats.Fleet.ReplicatedOut != 1 {
		t.Errorf("owner replicated %d entries, want 1", ownerStats.Fleet.ReplicatedOut)
	}

	// Kill the owner: the key must survive on its replica. Requests to the
	// surviving nodes still answer 200 — from local cache on the replica
	// holder, via replica-fallback proxy on the node that holds nothing —
	// and nobody re-synthesizes.
	nodes[owner].srv.Close()
	for _, i := range others {
		status, _, _, b := postV1(t, nodes[i].url, body)
		if status != http.StatusOK {
			t.Errorf("node %d after owner death: status %d: %s", i, status, b)
		}
		if !bytes.Equal(b, plans[0]) {
			t.Errorf("node %d served a different plan after owner death", i)
		}
	}
	if got := totalSyntheses(nodes); got != 1 {
		t.Errorf("owner death triggered re-synthesis: %d total syntheses", got)
	}
}

// TestFleetOwnerDownReplicaRead kills the owner before a node that holds no
// copy ever asks for the key: the miss falls over from the dead owner to the
// replica, which answers from its cache, and the response carries the
// replica's URL in the fleet node header.
func TestFleetOwnerDownReplicaRead(t *testing.T) {
	nodes := newFleetTrio(t, nil)
	g, c := testGraph(t), testCluster()
	body := requestBody(t, g, c, RequestOptions{})
	key := cacheKey(g, c, RequestOptions{})
	owner, others := ownerIndex(t, nodes, key)

	// Fill through the owner so the entry exists there plus one replica.
	if status, _, _, b := postV1(t, nodes[owner].url, body); status != http.StatusOK {
		t.Fatalf("fill request: status %d: %s", status, b)
	}
	replicaSet := nodes[owner].s.cfg.Fleet.ReplicaSet(key)
	if len(replicaSet) != 2 || replicaSet[0] != nodes[owner].url {
		t.Fatalf("replica set = %v, want owner first and one successor", replicaSet)
	}
	var reader int // the node that holds nothing
	for _, i := range others {
		if nodes[i].url != replicaSet[1] {
			reader = i
		}
	}

	nodes[owner].srv.Close()
	status, cacheHdr, nodeHdr, b := postV1(t, nodes[reader].url, body)
	if status != http.StatusOK {
		t.Fatalf("replica read: status %d: %s", status, b)
	}
	if cacheHdr != "hit" {
		t.Errorf("replica read X-HAP-Cache = %q, want hit (replicas serve from cache)", cacheHdr)
	}
	if nodeHdr != replicaSet[1] {
		t.Errorf("fleet node header = %q, want the replica %q", nodeHdr, replicaSet[1])
	}
	if got := totalSyntheses(nodes); got != 1 {
		t.Errorf("replica read re-synthesized: %d total syntheses", got)
	}
	st := nodes[reader].s.Stats()
	if st.Fleet.ProxyErrors == 0 {
		t.Error("dead owner produced no proxy error")
	}
	if st.Fleet.Proxied == 0 {
		t.Error("replica answer not counted as proxied")
	}
}

// TestFleetPeerListReloadMidTraffic grows a 2-node fleet to 3 by rewriting
// the peers file between requests: traffic before, during, and after the
// reload answers 200, and Stats counts the membership change.
func TestFleetPeerListReloadMidTraffic(t *testing.T) {
	// Three servers up front, but only the first two start in the peers file.
	switches := make([]*switchHandler, 3)
	urls := make([]string, 3)
	srvs := make([]*httptest.Server, 3)
	for i := range switches {
		switches[i] = &switchHandler{}
		srvs[i] = httptest.NewServer(switches[i])
		defer srvs[i].Close()
		urls[i] = srvs[i].URL
	}
	dir := t.TempDir()
	peersFile := filepath.Join(dir, "peers")
	writePeers := func(members []string) {
		t.Helper()
		if err := os.WriteFile(peersFile, []byte(strings.Join(members, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writePeers(urls[:2])

	nodes := make([]*fleetNode, 3)
	for i := range nodes {
		fl, err := fleet.New(fleet.Config{Self: urls[i], PeersFile: peersFile, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		node := &fleetNode{url: urls[i], srv: srvs[i]}
		node.s = New(Config{
			Fleet: fl,
			Synthesize: func(ctx context.Context, g *graph.Graph, c *cluster.Cluster, opt hap.Options) (*hap.Plan, error) {
				node.synth.Add(1)
				return planWith(g, c, opt)
			},
		})
		switches[i].set(node.s.Handler())
		nodes[i] = node
	}

	g, c := testGraph(t), testCluster()
	body := requestBody(t, g, c, RequestOptions{})
	if status, _, _, b := postV1(t, nodes[0].url, body); status != http.StatusOK {
		t.Fatalf("pre-reload request: status %d: %s", status, b)
	}

	// Grow the fleet: all three nodes reload the same file, as SIGHUP or the
	// poller would make them. Nodes 0 and 1 learn about node 2; node 2's own
	// view already contained all three (self is always a member), so its
	// reload is correctly a no-op.
	writePeers(urls)
	for i, n := range nodes {
		changed, err := n.s.cfg.Fleet.Members.Reload()
		if err != nil {
			t.Fatalf("node %d reload: %v", i, err)
		}
		if want := i < 2; changed != want {
			t.Fatalf("node %d reload changed = %v, want %v", i, changed, want)
		}
	}

	// Traffic keeps flowing across the new 3-node ring; a second distinct
	// key exercises routing under the new membership end to end.
	hetero := cluster.FromGPUs(cluster.DefaultNetwork(),
		cluster.MachineSpec{Type: cluster.A100, GPUs: 1},
		cluster.MachineSpec{Type: cluster.P100, GPUs: 1})
	body2 := requestBody(t, testGraph(t), hetero, RequestOptions{})
	for i, n := range nodes {
		if status, _, _, b := postV1(t, n.url, body2); status != http.StatusOK {
			t.Fatalf("post-reload request via node %d: status %d: %s", i, status, b)
		}
	}
	if got := totalSyntheses(nodes); got != 2 {
		t.Errorf("fleet ran %d syntheses for 2 distinct keys, want 2", got)
	}
	st := nodes[0].s.Stats()
	if st.Fleet.MembershipReloads != 1 {
		t.Errorf("membership_reloads = %d, want 1", st.Fleet.MembershipReloads)
	}
	if len(st.Fleet.Peers) != 3 {
		t.Errorf("peers after reload = %v, want all 3", st.Fleet.Peers)
	}
}

// TestFleetEntriesRoundTrip pushes an entry over POST /v1/fleet/entries and
// reads it back over GET: the replication wire format round-trips, bad
// entries are rejected, and Stats counts the accepted push.
func TestFleetEntriesRoundTrip(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	e := fleet.Entry{Key: "k1", Bin: framed("plan"), Version: 4}
	push, _ := json.Marshal(e)
	resp, err := http.Post(srv.URL+fleet.EntriesPath, "application/json", bytes.NewReader(push))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("push: status %d, want 204", resp.StatusCode)
	}
	if v, ok := s.store.Get("k1"); !ok || !bytes.Equal(v.Bin, e.Bin) || v.Version != e.Version {
		t.Fatalf("pushed entry did not land in the store: %+v, %v", v, ok)
	}

	resp, err = http.Get(srv.URL + fleet.EntriesPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q", ct)
	}
	var streamed []fleet.Entry
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var got fleet.Entry
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, got)
	}
	if len(streamed) != 1 || !reflect.DeepEqual(streamed[0], e) {
		t.Errorf("streamed entries = %+v, want the pushed entry back", streamed)
	}

	// A plan-less entry is invalid.
	resp, err = http.Post(srv.URL+fleet.EntriesPath, "application/json", strings.NewReader(`{"key":"empty"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty entry: status %d, want 400", resp.StatusCode)
	}
}

// TestStoreIgnoresSuppliedETag: an entry's tag is hash(bytes) whatever tag it
// arrived with — a replication push or a restored file with a wrong one must
// not make If-None-Match answer 304 for bytes the client does not hold.
func TestStoreIgnoresSuppliedETag(t *testing.T) {
	plan := framed("plan")
	want := ETagFor(plan)
	const forged = `"0000000000000000"`
	_, url := newKeyFirstServer(t, Config{})
	push := fmt.Sprintf(`{"key":"k1","bin":"%s","version":3,"etag":%q}`, base64.StdEncoding.EncodeToString(plan), forged)
	resp, err := http.Post(url+fleet.EntriesPath, "application/json", strings.NewReader(push))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("push: status %d, want 204", resp.StatusCode)
	}
	if a := ask(t, url, keyBody("k1"), forged); a.status != http.StatusOK || a.etag != want || !bytes.Equal(a.body, plan) {
		t.Errorf("If-None-Match: <forged>: status %d tag %q, want 200 with the plan and %q", a.status, a.etag, want)
	}
	if a := ask(t, url, keyBody("k1"), want); a.status != http.StatusNotModified {
		t.Errorf("If-None-Match: <content tag>: status %d, want 304", a.status)
	}

	dir := t.TempDir()
	d, err := newDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	file, _ := json.Marshal(map[string]any{"key": "k2", "bin": plan, "version": 2, "etag": forged})
	if err := os.WriteFile(d.path("k2"), file, 0o644); err != nil {
		t.Fatal(err)
	}
	if v, ok := newStore(8, 1<<20, d, 0).Get("k2"); !ok || v.ETag != want || v.Version != 2 {
		t.Errorf("restored entry: %v, version %d tag %q; want version 2 with %q", ok, v.Version, v.ETag, want)
	}
}

// TestFleetWarmup boots a node against a peer holding three entries and
// expects all three to arrive; then re-runs warm-up against a peer whose
// stream dies mid-transfer and expects the prefix to be kept and the error
// reported — the "interrupted warm-up keeps what arrived" contract.
func TestFleetWarmup(t *testing.T) {
	source := New(Config{})
	for i := 0; i < 3; i++ {
		source.store.Put(fmt.Sprintf("k%d", i), CachedPlan{Bin: framed(fmt.Sprintf("plan-%d", i))})
	}
	srcSrv := httptest.NewServer(source.Handler())
	defer srcSrv.Close()

	fl, err := fleet.New(fleet.Config{Self: "http://joining:1", Peers: []string{srcSrv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	joining := New(Config{Fleet: fl})
	n, err := joining.WarmFrom(context.Background(), fl.Members.Peers())
	if err != nil || n != 3 {
		t.Fatalf("WarmFrom = (%d, %v), want (3, nil)", n, err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := joining.store.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("warmed node is missing k%d", i)
		}
	}
	if st := joining.Stats(); st.Fleet.WarmupEntries != 3 {
		t.Errorf("warmup_entries = %d, want 3", st.Fleet.WarmupEntries)
	}

	// A peer that dies mid-stream: two complete NDJSON lines arrive, then
	// the connection is cut. The partial transfer must keep both entries.
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		enc.Encode(fleet.Entry{Key: "p0", Bin: framed("plan")})
		enc.Encode(fleet.Entry{Key: "p1", Bin: framed("plan")})
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // slam the connection mid-response
	}))
	defer dying.Close()

	fl2, err := fleet.New(fleet.Config{Self: "http://joining:2", Peers: []string{dying.URL}})
	if err != nil {
		t.Fatal(err)
	}
	cold := New(Config{Fleet: fl2})
	n, err = cold.WarmFrom(context.Background(), fl2.Members.Peers())
	if err == nil {
		t.Error("interrupted stream reported no error")
	}
	if n != 2 {
		t.Errorf("interrupted warm-up kept %d entries, want the 2 that arrived", n)
	}
	for _, k := range []string{"p0", "p1"} {
		if _, ok := cold.store.Get(k); !ok {
			t.Errorf("interrupted warm-up lost %s", k)
		}
	}
}

// TestFleetWarmupKeepsHottest: a peer streams its plans most-recently used
// first, so a joining node whose cache is smaller than the peer's must keep
// the hottest prefix, in the peer's recency order — not the coldest plans
// with the order reversed.
func TestFleetWarmupKeepsHottest(t *testing.T) {
	source := New(Config{})
	for i := 0; i < 3; i++ {
		source.store.Put(fmt.Sprintf("k%d", i), CachedPlan{Bin: framed(fmt.Sprintf("plan-%d", i))})
	}
	srcSrv := httptest.NewServer(source.Handler())
	defer srcSrv.Close()

	fl, err := fleet.New(fleet.Config{Self: "http://joining:1", Peers: []string{srcSrv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	joining := New(Config{Fleet: fl, MaxCacheEntries: 2})
	n, err := joining.WarmFrom(context.Background(), fl.Members.Peers())
	if err != nil || n != 2 {
		t.Fatalf("WarmFrom = (%d, %v), want (2, nil): the stream stops once the cache is full", n, err)
	}
	var held []string
	joining.store.Range(func(key string, _ CachedPlan) bool {
		held = append(held, key)
		return true
	})
	if got := strings.Join(held, " "); got != "k2 k1" {
		t.Errorf("warmed cache holds [%s] most recent first, want [k2 k1]", got)
	}
	if st := joining.Stats(); st.CacheEvictions != 0 || st.Fleet.WarmupEntries != 2 {
		t.Errorf("evictions %d, warmup_entries %d; want 0 and 2", st.CacheEvictions, st.Fleet.WarmupEntries)
	}
}

// TestFleetWarmupRestartKeepsRecency: a joiner with a cache directory warms
// from a peer holding k0, k1, k2 (k2 hottest), then restarts on the same
// directory. The restored cache must hold the warm-up set in the peer's
// recency order — a warm-up entry's file carries its LRU stamp, just below
// the tail's, so the oldest-first replay puts k2 back on top.
func TestFleetWarmupRestartKeepsRecency(t *testing.T) {
	source := New(Config{})
	for i := 0; i < 3; i++ {
		source.store.Put(fmt.Sprintf("k%d", i), CachedPlan{Bin: framed(fmt.Sprintf("plan-%d", i))})
	}
	srcSrv := httptest.NewServer(source.Handler())
	defer srcSrv.Close()

	held := func(s *Server) string {
		var keys []string
		s.store.Range(func(key string, _ CachedPlan) bool {
			keys = append(keys, key)
			return true
		})
		return strings.Join(keys, " ")
	}
	dir := t.TempDir()
	fl, err := fleet.New(fleet.Config{Self: "http://joining:1", Peers: []string{srcSrv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	joining := New(Config{Fleet: fl, CacheDir: dir})
	if n, err := joining.WarmFrom(context.Background(), fl.Members.Peers()); err != nil || n != 3 {
		t.Fatalf("WarmFrom = (%d, %v), want (3, nil)", n, err)
	}
	if got := held(joining); got != "k2 k1 k0" {
		t.Fatalf("warmed cache holds [%s] most recent first, want [k2 k1 k0]", got)
	}

	restarted := New(Config{CacheDir: dir})
	if got := held(restarted); got != "k2 k1 k0" {
		t.Errorf("restarted cache holds [%s] most recent first, want the warm-up order [k2 k1 k0]", got)
	}
}

// TestFleetForwardedRequestNeverReforwards plants a forwarded request on a
// node that does not own the key: the node must synthesize locally rather
// than bounce the request onward, the loop-prevention invariant.
func TestFleetForwardedRequestNeverReforwards(t *testing.T) {
	nodes := newFleetTrio(t, nil)
	g, c := testGraph(t), testCluster()
	body := requestBody(t, g, c, RequestOptions{})
	key := cacheKey(g, c, RequestOptions{})
	_, others := ownerIndex(t, nodes, key)

	nonOwner := nodes[others[0]]
	req, err := http.NewRequest(http.MethodPost, nonOwner.url+"/v1/synthesize", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(fleet.ForwardHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("forwarded request: status %d: %s", resp.StatusCode, b)
	}
	if nonOwner.synth.Load() != 1 {
		t.Errorf("forwarded request did not synthesize on the receiving node")
	}
	st := nonOwner.s.Stats()
	if st.Fleet.ForwardedServed != 1 {
		t.Errorf("forwarded_served = %d, want 1", st.Fleet.ForwardedServed)
	}
	if st.Fleet.Proxied != 0 {
		t.Errorf("forwarded request was re-forwarded (proxied = %d)", st.Fleet.Proxied)
	}
}
