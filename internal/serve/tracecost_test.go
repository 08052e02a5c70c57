// The cost of tracing a cache miss: its spans follow the request's phases,
// not the beam search's levels, so a deeper search neither adds spans nor
// grows the span header a fleet hop sends back.

package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"

	"hap/internal/fleet"
	"hap/internal/graph"
	"hap/internal/obs"
)

// Bounds on a traced miss, measured with go1.24 on the two MLPs below, whose
// searches run 30 and 100 beam levels: 16 spans, a 3.4 KiB span header and
// 168 allocations over the same miss untraced, for both. With a span per beam
// level they were 46 and 116 spans, 11.8 and 32.0 KiB of header and 722 and
// 2 054 allocations. The bounds leave room for a few more phase spans, not
// for one per level.
const (
	maxMissSpansHeader = 6 << 10
	maxMissTraceAllocs = 250
)

// missTraceGraphs are two training MLPs whose beam searches run different
// numbers of levels on beamCluster().
func missTraceGraphs() []*graph.Graph {
	return []*graph.Graph{
		seedServeGraph(64, 64, 64),
		seedServeGraph(64, 64, 64, 64, 64, 64, 64, 64),
	}
}

// serveForwardedMiss answers body on a fresh daemon as the owner of a fleet
// hop: the request carries the forward mark and a hop parent, so the answer
// carries this node's spans in its X-HAP-Trace-Spans header.
func serveForwardedMiss(cfg Config, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/synthesize", bytes.NewReader(body))
	req.Header.Set(fleet.ForwardHeader, "http://peer")
	req.Header.Set(obs.TraceHeader, obs.FormatTraceHeader("cafe0123cafe0123", 0xbeef))
	rr := httptest.NewRecorder()
	New(cfg).Handler().ServeHTTP(rr, req)
	return rr
}

// TestMissTraceCostIndependentOfSearchDepth pins what a traced miss costs:
// the same span names whatever the search's depth, a span header of a few
// KiB on a forwarded miss, and a fixed number of allocations over the same
// miss untraced.
func TestMissTraceCostIndependentOfSearchDepth(t *testing.T) {
	var names []string
	var levels []int
	for i, g := range missTraceGraphs() {
		body := requestBody(t, g, beamCluster(), RequestOptions{})
		rr := serveForwardedMiss(Config{}, body)
		if rr.Code != http.StatusOK || rr.Header().Get("X-HAP-Cache") != "miss" {
			t.Fatalf("graph %d: answered %d (%s), want a miss", i, rr.Code, rr.Header().Get("X-HAP-Cache"))
		}
		hdr := rr.Header().Get(obs.SpansHeader)
		spans := obs.DecodeSpans(hdr)
		if len(spans) == 0 {
			t.Fatalf("graph %d: forwarded miss exported no spans", i)
		}
		var ns []string
		n := 0
		for _, sp := range spans {
			ns = append(ns, sp.Name)
			if sp.Name == "search" {
				lv, err := strconv.Atoi(sp.Attrs["levels"])
				if err != nil {
					t.Fatalf("graph %d: search span levels %q: %v", i, sp.Attrs["levels"], err)
				}
				n += lv
			}
		}
		slices.Sort(ns)
		names = append(names, fmt.Sprint(ns))
		levels = append(levels, n)
		if len(hdr) > maxMissSpansHeader {
			t.Errorf("graph %d: %d-byte span header on a forwarded miss, want at most %d", i, len(hdr), maxMissSpansHeader)
		}

		traced := testing.AllocsPerRun(5, func() { serveForwardedMiss(Config{}, body) })
		untraced := testing.AllocsPerRun(5, func() { serveForwardedMiss(Config{TraceRing: -1}, body) })
		if d := traced - untraced; d > maxMissTraceAllocs {
			t.Errorf("graph %d: a traced miss makes %.0f allocations more than an untraced one, want at most %d", i, d, maxMissTraceAllocs)
		}
		t.Logf("graph %d: %d beam levels, %d spans, %d-byte span header, %.0f − %.0f allocations traced − untraced",
			i, n, len(spans), len(hdr), traced, untraced)
	}
	if levels[0] == levels[1] {
		t.Fatalf("both searches ran %d beam levels; the graphs do not tell a per-level span from a per-phase one", levels[0])
	}
	if names[0] != names[1] {
		t.Errorf("span names differ with search depth:\n%s\n%s", names[0], names[1])
	}
}
