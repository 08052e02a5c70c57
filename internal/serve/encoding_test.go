// Tests for the daemon's one plan encoding at its intake boundaries: a plan
// file written when the record also carried the plan's JSON form restores
// and serves the same bytes, a record whose payload is not a framed binary
// plan is refused on disk and over the fleet, and a donor seeds from the
// binary payload the store holds.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"hap"
	"hap/internal/fleet"
)

// TestTwoEncodingPlanFileRestores: testdata/two-encoding-plan-file holds one
// plan file as the daemon wrote it when a record carried both the JSON plan
// and the binary payload. It restores, and the daemon serves its binary
// payload byte for byte, tagged with that payload's hash, as a plan that
// decodes and verifies.
func TestTwoEncodingPlanFileRestores(t *testing.T) {
	src, err := filepath.Glob(filepath.Join("testdata", "two-encoding-plan-file", "*"+planFileExt))
	if err != nil || len(src) != 1 {
		t.Fatalf("fixture: %v, %v", src, err)
	}
	raw, err := os.ReadFile(src[0])
	if err != nil {
		t.Fatal(err)
	}
	var old struct {
		Key       string
		Plan, Bin []byte
	}
	if err := json.Unmarshal(raw, &old); err != nil || len(old.Plan) == 0 || len(old.Bin) == 0 {
		t.Fatalf("fixture is not a two-encoding record (%v)", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(src[0])), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(Config{CacheDir: dir})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if st := s.Stats(); st.CacheRestored != 1 || st.CacheBytes != int64(len(old.Bin)) {
		t.Fatalf("restored %d plans holding %d bytes, want 1 holding the payload's %d", st.CacheRestored, st.CacheBytes, len(old.Bin))
	}
	g, c := testGraph(t), testCluster()
	if key := cacheKey(g, c, RequestOptions{}); key != old.Key {
		t.Fatalf("fixture key %q, the test request's key %q", old.Key, key)
	}
	resp := postPath(t, srv.URL, "/v1/synthesize", keyBody(old.Key), "")
	body := readAll(t, resp)
	if resp.Header.Get("X-HAP-Cache") != "hit" || !bytes.Equal(body, old.Bin) {
		t.Fatalf("restored plan: cache %q, same bytes as the file's payload %v", resp.Header.Get("X-HAP-Cache"), bytes.Equal(body, old.Bin))
	}
	if tag := resp.Header.Get("ETag"); tag != ETagFor(old.Bin) {
		t.Errorf("ETag %s, want the payload's hash %s", tag, ETagFor(old.Bin))
	}
	p, err := hap.ReadProgramBinary(bytes.NewReader(body), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := hap.Verify(p, c.M(), 7); err != nil {
		t.Errorf("restored plan fails verification: %v", err)
	}
}

// TestUnframedPayloadRefused is the witness for intake framing: a record with
// a JSON plan (here the program's Encode rendering) and a payload that is not
// a framed binary plan was once restored from disk, and accepted from a
// replicating peer, then served as a hit that no client could decode until
// it was evicted. Both intakes now refuse it, and the key misses and
// synthesizes a plan that verifies.
func TestUnframedPayloadRefused(t *testing.T) {
	g, c := testGraph(t), testCluster()
	key := cacheKey(g, c, RequestOptions{})
	good, err := hap.NewPlanner(c).Plan(context.Background(), testGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	var plan bytes.Buffer
	if err := good.Program.Encode(&plan); err != nil {
		t.Fatal(err)
	}
	record, err := json.Marshal(map[string]any{"key": key, "plan": plan.Bytes(), "bin": []byte("not a plan payload"), "version": 1})
	if err != nil {
		t.Fatal(err)
	}
	wantFreshPlan := func(t *testing.T, s *Server, url string) {
		t.Helper()
		resp := postPath(t, url, "/v1/synthesize", requestBody(t, g, c, RequestOptions{}), BinaryPlanContentType)
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-HAP-Cache") != "miss" {
			t.Fatalf("status %d cache %q, want a 200 miss: %.120s", resp.StatusCode, resp.Header.Get("X-HAP-Cache"), body)
		}
		p, err := hap.ReadProgramBinary(bytes.NewReader(body), testGraph(t))
		if err != nil {
			t.Fatalf("served plan does not decode: %v", err)
		}
		if err := hap.Verify(p, c.M(), 7); err != nil {
			t.Errorf("served plan fails verification: %v", err)
		}
		if st := s.Stats(); st.Syntheses != 1 {
			t.Errorf("%d syntheses, want 1", st.Syntheses)
		}
	}

	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		d, err := newDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(d.path(key), record, 0o644); err != nil {
			t.Fatal(err)
		}
		s := New(Config{CacheDir: dir})
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		if st := s.Stats(); st.CacheRestored != 0 {
			t.Errorf("restored %d plans from a file with an unframed payload, want 0", st.CacheRestored)
		}
		wantFreshPlan(t, s, srv.URL)
	})

	t.Run("fleet", func(t *testing.T) {
		s := New(Config{})
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		resp := postPath(t, srv.URL, fleet.EntriesPath, record, "")
		if raw := readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("push of an unframed payload: status %d (%s), want 400", resp.StatusCode, raw)
		}
		wantFreshPlan(t, s, srv.URL)
	})
}

// TestDonorSeedsFromBinaryPayload: a near-variant miss seeds its search from
// the donor's binary payload, the one copy of the plan the store holds: the
// seed header is set and synth_incremental goes up by one. With the donor's
// payload swapped for one that is framed but decodes to no plan (its plan
// source kept), the same miss searches cold.
func TestDonorSeedsFromBinaryPayload(t *testing.T) {
	for _, spoil := range []bool{false, true} {
		s := New(Config{})
		srv := httptest.NewServer(s.Handler())
		c := testCluster()
		base := seedServeGraph(64, 96, 96, 96, 96, 96, 96, 32)
		if status, _, raw := postHdr(t, srv.URL, requestBody(t, base, c, RequestOptions{})); status != http.StatusOK {
			t.Fatalf("donor: status %d: %s", status, raw)
		}
		if spoil {
			key := cacheKey(base, c, RequestOptions{})
			v, _ := s.store.Get(key)
			v.Bin = framed("not a plan")
			s.store.Put(key, v)
		}
		before := s.Stats().SynthIncremental
		wide := seedServeGraph(64, 96, 96, 112, 96, 96, 96, 32)
		status, hdr, plan := postHdr(t, srv.URL, requestBody(t, wide, c, RequestOptions{}))
		if status != http.StatusOK || hdr.Get("X-HAP-Cache") != "miss" {
			t.Fatalf("spoiled donor %v: status %d cache %q: %.120s", spoil, status, hdr.Get("X-HAP-Cache"), plan)
		}
		want := uint64(1)
		if spoil {
			want = 0
		}
		if n := s.Stats().SynthIncremental - before; (hdr.Get(SeedDistanceHeader) != "") != !spoil || n != want {
			t.Errorf("spoiled donor %v: %s %q, synth_incremental +%d", spoil, SeedDistanceHeader, hdr.Get(SeedDistanceHeader), n)
		}
		p, err := hap.ReadProgramBinary(bytes.NewReader(plan), seedServeGraph(64, 96, 96, 112, 96, 96, 96, 32))
		if err != nil {
			t.Fatal(err)
		}
		if err := hap.Verify(p, c.M(), 7); err != nil {
			t.Errorf("spoiled donor %v: plan fails verification: %v", spoil, err)
		}
		srv.Close()
	}
}
