package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestNilSafety: every Trace/Span/Collector method must be a no-op on a
// nil receiver — that is the "tracing off" contract the hot path relies on.
func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" {
		t.Error("nil trace ID should be empty")
	}
	sp := tr.Root("request", 0)
	if sp != nil {
		t.Fatal("nil trace Root should return nil span")
	}
	child := sp.Child("decode")
	if child != nil {
		t.Fatal("nil span Child should return nil")
	}
	sp.SetAttrStr("k", "v")
	sp.SetAttrInt("n", 1)
	sp.SetAttrFloat("f", 1.5)
	sp.SetAttrBool("b", true)
	sp.End()
	if got := sp.SpanID(); got != 0 {
		t.Errorf("nil span SpanID = %d, want 0", got)
	}
	if got := tr.EncodeSpans(sp); got != "" {
		t.Errorf("nil trace EncodeSpans = %q, want empty", got)
	}
	tr.Merge([]SpanRecord{{ID: 1}})
	if got := tr.Export(); got != nil {
		t.Errorf("nil trace Export = %v, want nil", got)
	}
	if got := tr.Finish(); got != nil {
		t.Errorf("nil trace Finish = %v, want nil", got)
	}
	var c *Collector
	c.Add(New("x", ""))
	if c.Traces() != nil {
		t.Error("nil collector should be empty")
	}
	if _, ok := c.Get("x"); ok {
		t.Error("nil collector Get should miss")
	}
}

// TestDisabledPathAllocs: the instrumentation sequence a handler runs per
// request must not allocate when tracing is off (nil span in context).
func TestTraceDisabledPathAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		sp := SpanFromContext(ctx)
		c := sp.Child("decode")
		c.SetAttrInt("bytes", 4096)
		c.SetAttrStr("endpoint", "/v1/synthesize")
		c.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path allocates %v per run, want 0", allocs)
	}
}

func TestTraceSpanTree(t *testing.T) {
	tr := New("", "node-a")
	if len(tr.ID()) != 16 {
		t.Fatalf("minted trace ID %q, want 16 hex chars", tr.ID())
	}
	root := tr.Root("request", 0)
	dec := root.Child("decode")
	dec.SetAttrInt("bytes", 123)
	time.Sleep(time.Millisecond)
	dec.End()
	dec.End() // double End records once
	root.SetAttrStr("endpoint", "/v1/synthesize")
	root.End()
	rec := tr.Finish()
	if rec.TraceID != tr.ID() || rec.Node != "node-a" {
		t.Fatalf("record identity = %q/%q", rec.TraceID, rec.Node)
	}
	if len(rec.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(rec.Spans))
	}
	byName := map[string]SpanRecord{}
	for _, sp := range rec.Spans {
		byName[sp.Name] = sp
	}
	d, r := byName["decode"], byName["request"]
	if d.Parent != r.ID {
		t.Errorf("decode parent = %d, want root %d", d.Parent, r.ID)
	}
	if d.Node != "node-a" {
		t.Errorf("decode node = %q", d.Node)
	}
	if d.Attrs["bytes"] != "123" {
		t.Errorf("decode attrs = %v", d.Attrs)
	}
	if d.DurUS < 500 {
		t.Errorf("decode duration = %dus, want >= ~1ms", d.DurUS)
	}
	if got := rec.Root(); got.ID != r.ID {
		t.Errorf("TraceRecord.Root = %+v, want request span", got)
	}
	if rec.DurUS < d.DurUS {
		t.Errorf("trace dur %d < decode dur %d", rec.DurUS, d.DurUS)
	}
}

func TestTraceMergeAndProvisionalRecord(t *testing.T) {
	// Simulate a fleet hop: node A opens a proxy span, node B roots under
	// it, B exports a provisional root + its finished spans, A merges.
	a := New("abc123", "http://a")
	aroot := a.Root("request", 0)
	proxy := aroot.Child("proxy")

	b := New("abc123", "http://b")
	broot := b.Root("request", proxy.SpanID())
	synth := broot.Child("synthesize")
	synth.End()
	remote := DecodeSpans(b.EncodeSpans(broot))

	a.Merge(remote)
	proxy.End()
	aroot.End()
	rec := a.Finish()
	if len(rec.Spans) != 4 {
		t.Fatalf("merged trace has %d spans, want 4", len(rec.Spans))
	}
	var remoteRoot *SpanRecord
	for i := range rec.Spans {
		if rec.Spans[i].Node == "http://b" && rec.Spans[i].Name == "request" {
			remoteRoot = &rec.Spans[i]
		}
	}
	if remoteRoot == nil {
		t.Fatal("remote root span missing after merge")
	}
	if remoteRoot.Parent != proxy.SpanID() {
		t.Errorf("remote root parent = %d, want proxy span %d", remoteRoot.Parent, proxy.SpanID())
	}
}

// End hands the span's attributes to its record, so the span must take no
// more of them; a provisional record in the spans header takes those set so
// far, and the span goes on.
func TestSpanAttrsAfterRecordAndEnd(t *testing.T) {
	tr := New("abc123", "")
	sp := tr.Root("request", 0)
	sp.SetAttrStr("cache", "miss")
	provisional := decodeOne(t, tr.EncodeSpans(sp))
	sp.SetAttrInt("status", 200)
	if len(provisional.Attrs) != 1 {
		t.Errorf("provisional record attrs %v, want only the attribute set before it", provisional.Attrs)
	}
	sp.End()
	sp.SetAttrStr("cache", "hit")
	sp.SetAttrBool("late", true)
	got := tr.Export().Spans
	if len(got) != 1 {
		t.Fatalf("trace has %d spans, want 1", len(got))
	}
	if a := got[0].Attrs; len(a) != 2 || a["cache"] != "miss" || a["status"] != "200" {
		t.Errorf("ended span's record attrs %v, want cache=miss status=200", a)
	}
}

// A trace's extent runs from its earliest start to its latest end, whichever
// records those are: spans merged from a fleet hop carry the remote node's
// clock, so a record that starts later may end last. Its root is the
// parent-0 record that starts first, the first recorded among equal starts,
// whatever its ID: a peer's header may carry ID 0.
func TestTraceFinishExtent(t *testing.T) {
	for _, row := range []struct {
		name       string
		spans      []SpanRecord
		start, dur int64
		root       string
	}{
		{"latest end not latest start", []SpanRecord{
			{ID: 1, Name: "a", StartUS: 10, DurUS: 80},
			{ID: 2, Name: "b", StartUS: 5, DurUS: 195},
			{ID: 3, Name: "c", StartUS: 0, DurUS: 100},
		}, 0, 200, "c"},
		{"root of ID 0", []SpanRecord{
			{ID: 0, Name: "zero", StartUS: 5, DurUS: 10},
			{ID: 7, Name: "later", StartUS: 9, DurUS: 1},
			{ID: 8, Parent: 7, Name: "child", StartUS: 1, DurUS: 1},
		}, 1, 14, "zero"},
		{"equal starts", []SpanRecord{
			{ID: 4, Name: "first", StartUS: 5, DurUS: 1},
			{ID: 3, Name: "second", StartUS: 5, DurUS: 2},
		}, 5, 2, "first"},
		{"no root", []SpanRecord{{ID: 4, Parent: 9, Name: "orphan", StartUS: 5, DurUS: 1}}, 5, 1, ""},
	} {
		tr := New("abc123", "")
		tr.Merge(row.spans)
		rec := tr.Finish()
		if rec.StartUS != row.start || rec.DurUS != row.dur {
			t.Errorf("%s: extent = start %d dur %d, want start %d dur %d", row.name, rec.StartUS, rec.DurUS, row.start, row.dur)
		}
		if got := rec.Root().Name; got != row.root {
			t.Errorf("%s: root %q, want %q", row.name, got, row.root)
		}
	}
}

func TestTraceHeaderCodec(t *testing.T) {
	id, parent := ParseTraceHeader(FormatTraceHeader("deadbeef00112233", 0xabc))
	if id != "deadbeef00112233" || parent != 0xabc {
		t.Errorf("round trip = %q/%x", id, parent)
	}
	id, parent = ParseTraceHeader("bare-client-id") // malformed hex suffix stays opaque
	if id != "bare-client-id" || parent != 0 {
		t.Errorf("opaque id parse = %q/%d", id, parent)
	}
	if got := FormatTraceHeader("x", 0); got != "x" {
		t.Errorf("zero parent formats as %q", got)
	}

	tr := New("x", "a")
	tr.Merge([]SpanRecord{{ID: 7, Name: "synthesize", Node: "b", StartUS: 10, DurUS: 5}})
	got := DecodeSpans(tr.EncodeSpans(nil))
	if len(got) != 1 || got[0].ID != 7 || got[0].Name != "synthesize" || got[0].Node != "b" || got[0].StartUS != 10 || got[0].DurUS != 5 {
		t.Errorf("spans codec round trip = %+v", got)
	}
	if DecodeSpans("") != nil || DecodeSpans("!!!not-base64") != nil {
		t.Error("malformed spans header should decode to nil")
	}
	if New("x", "").EncodeSpans(nil) != "" {
		t.Error("empty spans should encode to empty header")
	}
}

func TestTraceCollectorRing(t *testing.T) {
	c := NewCollector(3)
	for i := 0; i < 5; i++ {
		c.Add(New(fmt.Sprintf("t%d", i), ""))
	}
	recs := c.Traces()
	if len(recs) != 3 {
		t.Fatalf("ring holds %d, want 3", len(recs))
	}
	var ids []string
	for _, r := range recs {
		ids = append(ids, r.ID())
	}
	if got := strings.Join(ids, ","); got != "t4,t3,t2" {
		t.Errorf("newest-first order = %s, want t4,t3,t2", got)
	}
	if _, ok := c.Get("t1"); ok {
		t.Error("evicted trace still found")
	}
	if r, ok := c.Get("t3"); !ok || r.ID() != "t3" {
		t.Error("retained trace not found")
	}
	// Duplicate IDs: newest wins.
	c.Add(New("t4", "newer"))
	if r, _ := c.Get("t4"); r.Export().Node != "newer" {
		t.Error("Get should return the newest record for an ID")
	}
}

func TestTraceWriteChrome(t *testing.T) {
	tr := New("abc", "http://a")
	root := tr.Root("request", 0)
	child := root.Child("synthesize")
	child.SetAttrInt("expansions", 42)
	child.End()
	root.End()
	tr.Merge([]SpanRecord{{ID: 99, Parent: root.SpanID(), Name: "remote", Node: "http://b", StartUS: tr.Export().Root().StartUS, DurUS: 3}})
	rec := tr.Finish()

	var buf bytes.Buffer
	if err := WriteChrome(&buf, rec); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			TS   int64             `json:"ts"`
			Dur  int64             `json:"dur"`
			PID  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	// 3 spans + 2 process_name metadata events (two nodes).
	if len(out.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5: %s", len(out.TraceEvents), buf.String())
	}
	pids := map[int]bool{}
	var sawSynth bool
	for _, ev := range out.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if ev.Ph != "X" {
			t.Errorf("span event phase = %q, want X", ev.Ph)
		}
		if ev.TS < 0 {
			t.Errorf("event %q ts %d not rebased to trace start", ev.Name, ev.TS)
		}
		if ev.Dur < 1 {
			t.Errorf("event %q has zero duration", ev.Name)
		}
		pids[ev.PID] = true
		if ev.Name == "synthesize" {
			sawSynth = true
			if ev.Args["expansions"] != "42" {
				t.Errorf("synthesize args = %v", ev.Args)
			}
		}
	}
	if !sawSynth {
		t.Error("synthesize event missing")
	}
	if len(pids) != 2 {
		t.Errorf("spans spread over %d pids, want 2 (one per node)", len(pids))
	}
}

func TestTraceLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	NewLogger("json", &buf).Info("hello", "k", "v")
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("json logger line not parseable: %v (%s)", err, buf.String())
	}
	if m["msg"] != "hello" || m["k"] != "v" {
		t.Errorf("json line = %v", m)
	}
	buf.Reset()
	NewLogger("text", &buf).Info("hello")
	if !strings.Contains(buf.String(), "msg=hello") {
		t.Errorf("text line = %q", buf.String())
	}
}

// FuzzDecodeSpans: DecodeSpans reads the X-HAP-Trace-Spans header of every
// proxied miss. Arbitrary header values never panic it, the empty value
// decodes to nil, whatever decodes, merged into a fresh trace, is written by
// Trace.EncodeSpans to a header that decodes to the same records in order
// (node, start, duration and attributes kept), and merging the decoded
// records into a trace keeps the trace's own spans. The committed corpus
// holds a forwarded miss's real header, the empty value, non-base64 text,
// base64 of non-JSON, the extreme start times and a root of ID 0.
func FuzzDecodeSpans(f *testing.F) {
	f.Add(jsonEncodeSpans([]SpanRecord{{ID: 7, Parent: 3, Name: "synthesize", Node: "b", StartUS: 10, DurUS: 5, Attrs: map[string]string{"k": "v"}}}))
	f.Fuzz(func(t *testing.T, v string) {
		spans := DecodeSpans(v)
		if v == "" && spans != nil {
			t.Fatalf("empty header decoded to %+v", spans)
		}
		fresh := New("abc123", "self")
		fresh.Merge(spans)
		if again := DecodeSpans(fresh.EncodeSpans(nil)); !slices.EqualFunc(spans, again, sameRecord) {
			t.Fatalf("merged records re-encode to %+v, want %+v", again, spans)
		}

		tr := New("abc123", "self")
		own := tr.Root("request", 0)
		own.Child("proxy").End()
		own.End()
		mine := tr.Export().Spans
		tr.Merge(spans)
		rec := tr.Finish()
		if len(rec.Spans) != len(mine)+len(spans) || !slices.EqualFunc(rec.Spans[:len(mine)], mine, sameRecord) {
			t.Fatalf("merging %d records left %d spans, want the trace's own %d first", len(spans), len(rec.Spans), len(mine))
		}
	})
}

// sameRecord compares span records; a nil and an empty attribute map are the
// same record, as their encodings are.
func sameRecord(a, b SpanRecord) bool {
	return a.ID == b.ID && a.Parent == b.Parent && a.Name == b.Name && a.Node == b.Node &&
		a.StartUS == b.StartUS && a.DurUS == b.DurUS && maps.Equal(a.Attrs, b.Attrs)
}
