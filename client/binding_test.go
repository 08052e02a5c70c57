// The client hashes the caller's graph once, for the plan's cache key, and
// its plan→graph binding check reuses that fingerprint while the plan's
// segment assignment is the one hashed. These tests hold the check to biting
// on that path: a daemon that answers with another graph's plan is refused,
// fetched outright or revalidated, and a plan that changes the segment
// assignment is checked against a fresh hash, not the key's.

package client

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hap"
	"hap/internal/planwire"
)

// binaryOf is a plan's binary payload, the body of every plan answer.
func binaryOf(t *testing.T, plan *hap.Plan) []byte {
	t.Helper()
	var bin bytes.Buffer
	if err := plan.WriteProgramBinary(&bin); err != nil {
		t.Fatal(err)
	}
	return bin.Bytes()
}

// stubDaemon answers every synthesize request, key-only or full, with the
// given plan payload, tagged with a fixed ETag: a request revalidating that
// tag is answered 304.
func stubDaemon(t *testing.T, bin []byte) (url string, notModified func() int) {
	t.Helper()
	const etag = `"stub"`
	var mu sync.Mutex
	var n304 int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("ETag", etag)
		if r.Header.Get("If-None-Match") == etag {
			mu.Lock()
			n304++
			mu.Unlock()
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("Content-Type", accept)
		w.Write(bin)
	}))
	t.Cleanup(srv.Close)
	return srv.URL, func() int {
		mu.Lock()
		defer mu.Unlock()
		return n304
	}
}

// wantMismatch asserts every way of asking the stub for g's plan fails the
// binding check on the fingerprint: a plain fetch, a conditional fetch and
// its 304 re-decode.
func wantMismatch(t *testing.T, url string, notModified func() int, g *hap.Graph) {
	t.Helper()
	c := testCluster()
	check := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
			t.Errorf("%s: err = %v, want a graph fingerprint mismatch", what, err)
		}
	}
	_, err := New(url).Synthesize(context.Background(), g, c, Options{})
	check("fetch", err)
	cond := New(url, WithConditionalFetch())
	for i, what := range []string{"conditional fetch", "304 re-decode"} {
		_, err := cond.Synthesize(context.Background(), g, c, Options{})
		check(what, err)
		if got := notModified(); got != i {
			t.Fatalf("after the %s the stub answered %d requests 304, want %d", what, got, i)
		}
	}
}

// A daemon that answers the client's key with a plan for another graph — the
// same topology at another batch size, so the node counts agree and only the
// fingerprint tells them apart — is refused.
func TestClientRejectsAnotherGraphsPlan(t *testing.T) {
	other := hap.NewGraph()
	x := other.AddPlaceholder("x", 0, 128, 32)
	w1 := other.AddParameter("w1", 32, 48)
	w2 := other.AddParameter("w2", 48, 8)
	h := other.AddOp(hap.ReLU, other.AddOp(hap.MatMul, x, w1))
	other.SetLoss(other.AddOp(hap.Sum, other.AddScale(other.AddOp(hap.MatMul, h, w2), 1.0/128)))
	if err := hap.Backward(other); err != nil {
		t.Fatal(err)
	}
	g := testGraph(t)
	if other.NumNodes() != g.NumNodes() {
		t.Fatalf("the other graph has %d nodes, want %d", other.NumNodes(), g.NumNodes())
	}
	plan, err := hap.NewPlanner(testCluster()).Plan(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	url, notModified := stubDaemon(t, binaryOf(t, plan))
	wantMismatch(t, url, notModified, g)
}

// A plan whose segment assignment is not the one the key hashed cannot be
// checked against the key's fingerprint: the fingerprint covers the
// assignment. Forged here: g's own program (its hash is the key's graph
// fingerprint) carrying an all-zero assignment, which still validates as one
// segment. Checked against a fresh hash of the graph it now binds to, it is
// refused; trusting the key's fingerprint would accept it.
func TestClientRehashesAnAdoptedSegmentAssignment(t *testing.T) {
	g := testGraph(t)
	plan, err := hap.NewPlanner(testCluster()).Plan(context.Background(), testGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	honest := binaryOf(t, plan)
	zeros := make([]int, g.NumNodes())

	bin := honest
	tlen := int(binary.BigEndian.Uint32(bin[len(bin)-8:]))
	tr, err := json.Marshal(planwire.Trailer{Ratios: plan.Ratios, SegmentOf: zeros, Cost: plan.Cost})
	if err != nil {
		t.Fatal(err)
	}
	forgedBin := append(bytes.Clone(bin[:len(bin)-8-tlen]), tr...)
	forgedBin = binary.BigEndian.AppendUint32(forgedBin, uint32(len(tr)))
	forgedBin = append(forgedBin, planwire.Magic[:]...)

	url, notModified := stubDaemon(t, forgedBin)
	wantMismatch(t, url, notModified, g)

	// The unforged plan, served by the same stub, binds.
	url, _ = stubDaemon(t, honest)
	if _, err := New(url).Synthesize(context.Background(), g, testCluster(), Options{}); err != nil {
		t.Errorf("the plan as planned: %v", err)
	}
}
