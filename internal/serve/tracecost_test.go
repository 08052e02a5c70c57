// The cost of tracing a cache miss: its spans follow the request's phases,
// not the beam search's levels, so a deeper search neither adds spans nor
// grows the span header a fleet hop sends back.

package serve

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"

	"hap/internal/fleet"
	"hap/internal/graph"
	"hap/internal/obs"
)

// Bounds on a traced miss, measured with go1.24 on the two MLPs below, whose
// searches run 30 and 100 beam levels: 16 spans and a 3.4 KiB span header
// for both, and over the same miss untraced 15 allocations when the miss was
// forwarded by a fleet peer (the span header included), 11 when not. With a
// span per beam level they were 46 and 116 spans, 11.8 and 32.0 KiB of
// header and 722 and 2 054 allocations; with a span per phase but each span
// its own allocation, with a map of formatted attributes and encoding/json
// writing the header, a forwarded miss cost 168. The header bound leaves
// room for a few more phase spans, not for one per level; the allocation
// bounds keep a third of headroom over the measurements.
const (
	maxMissSpansHeader            = 6 << 10
	maxMissTraceAllocs            = 20
	maxUnforwardedMissTraceAllocs = 15
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

// serveMiss answers body on a fresh daemon as an end client's request.
func serveMiss(cfg Config, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/synthesize", bytes.NewReader(body))
	rr := httptest.NewRecorder()
	New(cfg).Handler().ServeHTTP(rr, req)
	return rr
}

// TestMissTraceCostIndependentOfSearchDepth pins what a traced miss costs
// on the wire: the same span names whatever the search's depth, and a span
// header of a few KiB on a forwarded miss. TestMissTraceAllocs holds its
// allocations.
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
		t.Logf("graph %d: %d beam levels, %d spans, %d-byte span header", i, n, len(spans), len(hdr))
	}
	if levels[0] == levels[1] {
		t.Fatalf("both searches ran %d beam levels; the graphs do not tell a per-level span from a per-phase one", levels[0])
	}
	if names[0] != names[1] {
		t.Errorf("span names differ with search depth:\n%s\n%s", names[0], names[1])
	}
}

// TestMissTraceAllocs holds a traced miss to a fixed number of allocations
// over the same miss untraced, forwarded by a fleet peer or not, whatever
// the search's depth. Each count is the fewest of five misses with the
// collector paused and on one P: with the collector running, sync.Pool
// drops moved the difference by several allocations run to run. It is
// skipped under the race detector, which drops a quarter of sync.Pool's
// Puts at random.
func TestMissTraceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	for i, g := range missTraceGraphs() {
		body := requestBody(t, g, beamCluster(), RequestOptions{})
		for _, row := range []struct {
			how   string
			serve func(Config, []byte) *httptest.ResponseRecorder
			max   int
		}{
			{"forwarded", serveForwardedMiss, maxMissTraceAllocs},
			{"unforwarded", serveMiss, maxUnforwardedMissTraceAllocs},
		} {
			traced := allocsPerRun(5, func() { row.serve(Config{}, body) })
			untraced := allocsPerRun(5, func() { row.serve(Config{TraceRing: -1}, body) })
			if d := traced - untraced; d > float64(row.max) {
				t.Errorf("graph %d: a traced %s miss makes %.0f allocations more than an untraced one, want at most %d", i, row.how, d, row.max)
			}
			t.Logf("graph %d: %s miss, %.0f − %.0f allocations traced − untraced", i, row.how, traced, untraced)
		}
	}
}

// allocsPerRun is the fewest allocations of runs calls of f, after one
// call to warm up, with the collector paused and on one P.
func allocsPerRun(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	allocs := math.Inf(1)
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs))
	}
	return allocs
}

// A forwarded miss's span header decodes to the records it did when
// encoding/json wrote it: testdata/spans-header-v1 in internal/obs is that
// header for the first MLP of missTraceGraphs, and the tree of span names,
// with each span's attributes, is the same now but for one span. Only IDs
// and times differ. The verify span is the program checker's since the
// header was written: the optimization loop runs it, and it reports the
// plan's stale reads, where the planner ran the structural validator after
// the loop.
func TestForwardedSpansMatchV1Header(t *testing.T) {
	raw, err := os.ReadFile("../obs/testdata/spans-header-v1")
	if err != nil {
		t.Fatal(err)
	}
	body := requestBody(t, missTraceGraphs()[0], beamCluster(), RequestOptions{})
	rr := serveForwardedMiss(Config{}, body)
	got, want := spanTree(obs.DecodeSpans(rr.Header().Get(obs.SpansHeader))), spanTree(obs.DecodeSpans(strings.TrimSpace(string(raw))))
	i := slices.Index(want, "request/flight/synthesize/verify map[kind:structural]")
	if i < 0 {
		t.Fatalf("the v1 header has no structural verify span:\n%s", strings.Join(want, "\n"))
	}
	want[i] = "request/flight/synthesize/optimize/verify map[kind:semantic stale_reads:0]"
	slices.Sort(want)
	if len(want) != 16 || !slices.Equal(got, want) {
		t.Errorf("forwarded miss's spans\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// spanTree renders records as sorted "path attrs" lines: each span's name
// under its ancestors' names, with its attributes in key order. A parent
// outside the records (the hop's proxy span) ends the path.
func spanTree(spans []obs.SpanRecord) []string {
	byID := map[uint64]obs.SpanRecord{}
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	var lines []string
	for _, sp := range spans {
		path := sp.Name
		for p := sp.Parent; byID[p].ID != 0; p = byID[p].Parent {
			path = byID[p].Name + "/" + path
		}
		lines = append(lines, fmt.Sprintf("%s %v", path, sp.Attrs))
	}
	slices.Sort(lines)
	return lines
}
