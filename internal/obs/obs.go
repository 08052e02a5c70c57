// Package obs is the serving stack's zero-dependency observability layer:
// wall-clock tracing spans carried on context.Context, a bounded ring of
// completed traces for GET /v1/debug/traces, Chrome trace-event export, and
// a small log/slog construction helper shared by hap-serve and tests.
//
// The design constraint that shapes every signature here is that tracing
// must cost nothing when it is off. Every method on *Trace and *Span is
// nil-safe: a nil receiver is a no-op, so instrumented code calls
// span.Child/SetAttrInt/End unconditionally and the disabled path compiles
// to a handful of nil checks — no interface boxing, no allocation, no map
// writes. Attribute setters are typed (SetAttrInt, SetAttrStr, ...) rather
// than SetAttr(any) for the same reason: an `any` parameter would allocate
// at the call site even when the span is nil.
//
// Span IDs are random uint64s rather than per-trace sequence numbers so
// that spans recorded independently on two fleet nodes merge into one
// trace by plain append, with no renumbering pass. They need to be unique,
// not secret, so they come from math/rand's auto-seeded global generator
// (math/rand/v2 needs a go 1.22 module); trace IDs, which clients see and
// choose, come from crypto/rand.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"maps"
	mrand "math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
)

// TraceHeader carries the trace identity on requests and responses:
// "traceID" from clients, "traceID-parentSpanID" on fleet forward hops so
// the remote node parents its work under the proxying node's hop span.
const TraceHeader = "X-HAP-Trace"

// SpansHeader returns the remote node's span records (base64 of JSON) on
// responses to fleet-forwarded requests, so the proxying node can merge
// them into the client-facing trace. Never set on responses to end clients.
const SpansHeader = "X-HAP-Trace-Spans"

// SpanRecord is one completed (or provisionally snapshotted) span. Times
// are Unix microseconds to match the Chrome trace-event format's unit.
type SpanRecord struct {
	ID      uint64            `json:"id"`
	Parent  uint64            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	Node    string            `json:"node,omitempty"`
	StartUS int64             `json:"start_us"`
	DurUS   int64             `json:"dur_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Trace accumulates the spans of one request.
// A nil *Trace is valid and inert.
type Trace struct {
	id   string
	node string

	mu    sync.Mutex
	spans []SpanRecord
}

// New starts a trace. An empty id mints a fresh random one; node labels
// every span recorded here (fleet advertise URL, or "" standalone).
func New(id, node string) *Trace {
	if id == "" {
		id = NewTraceID()
	}
	return &Trace{id: id, node: node}
}

// NewTraceID returns a 16-hex-digit random trace identifier.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a fixed ID keeps the
		// request path alive at the cost of trace collisions.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ID returns the trace identifier ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root opens a top-level span. parent is 0 for a client-originated request
// or the forwarding node's hop-span ID on a fleet hop, so the two nodes'
// records assemble into one tree.
func (t *Trace) Root(name string, parent uint64) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, id: newSpanID(), parent: parent, name: name, start: time.Now()}
}

// add appends a finished span record.
func (t *Trace) add(r SpanRecord) {
	t.mu.Lock()
	t.spans = append(t.spans, r)
	t.mu.Unlock()
}

// Merge appends span records from another node verbatim (random span IDs
// make this collision-safe). No-op on nil.
func (t *Trace) Merge(spans []SpanRecord) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// Snapshot copies the spans recorded so far (nil on nil receiver).
func (t *Trace) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	return out
}

// Finish packages the trace for the collector ring. Call after the root
// span has ended. Returns nil on a nil trace.
func (t *Trace) Finish() *TraceRecord {
	if t == nil {
		return nil
	}
	spans := t.Snapshot()
	rec := &TraceRecord{TraceID: t.id, Node: t.node, Spans: spans}
	// The extent runs from the earliest start to the latest end, which need
	// not belong to one span: merged fleet spans carry another node's clock.
	var end int64
	for i, sp := range spans {
		if i == 0 || sp.StartUS < rec.StartUS {
			rec.StartUS = sp.StartUS
		}
		if e := sp.StartUS + sp.DurUS; i == 0 || e > end {
			end = e
		}
	}
	rec.DurUS = end - rec.StartUS
	return rec
}

// Span measures one phase. A nil *Span is valid and inert, which is the
// entire hot-path contract: hap-layer hooks call these methods without
// checking whether tracing is enabled.
type Span struct {
	t      *Trace
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  map[string]string
	ended  bool
}

// newSpanID mints a random nonzero span identifier.
func newSpanID() uint64 {
	for {
		if id := mrand.Uint64(); id != 0 {
			return id
		}
	}
}

// SpanID returns the span's identifier (0 on nil).
func (s *Span) SpanID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Child opens a sub-span. Returns nil (still inert) on a nil receiver.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{t: s.t, id: newSpanID(), parent: s.id, name: name, start: time.Now()}
}

// SetAttrStr attaches a string attribute. No-op on nil and on an ended
// span, whose record owns the attribute map.
func (s *Span) SetAttrStr(key, v string) {
	if s == nil || s.ended {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = v
}

// SetAttrInt attaches an integer attribute. No-op on nil.
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.SetAttrStr(key, itoa(v))
}

// SetAttrFloat attaches a float attribute. No-op on nil.
func (s *Span) SetAttrFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.SetAttrStr(key, ftoa(v))
}

// SetAttrBool attaches a boolean attribute. No-op on nil.
func (s *Span) SetAttrBool(key string, v bool) {
	if s == nil {
		return
	}
	if v {
		s.SetAttrStr(key, "true")
	} else {
		s.SetAttrStr(key, "false")
	}
}

// End closes the span and records it on its trace. Ending twice records
// once. No-op on nil.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	// The span is done with its attributes: the record takes the map.
	s.t.add(s.record(time.Since(s.start), s.attrs))
}

// Record snapshots the span as if it ended now, without closing it. Used
// to export a provisional root record on fleet-hop responses, where the
// remote root must appear in the merged trace before it actually ends. The
// span stays open to attributes, so the record gets a copy of them.
func (s *Span) Record() SpanRecord {
	if s == nil {
		return SpanRecord{}
	}
	return s.record(time.Since(s.start), maps.Clone(s.attrs))
}

func (s *Span) record(d time.Duration, attrs map[string]string) SpanRecord {
	return SpanRecord{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		Node:    s.t.node,
		StartUS: s.start.UnixMicro(),
		DurUS:   d.Microseconds(),
		Attrs:   attrs,
	}
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ---- context carriage ----

type ctxKey struct{}

// ContextWithSpan returns ctx carrying s. A nil span returns ctx unchanged,
// so the disabled path adds no context layers and no Value-chain depth.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil. Callers do one
// lookup per operation (not per inner-loop step) and hold the result.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Start opens a child of the context's span (nil if none) and returns the
// ctx carrying it plus the span itself. Convenience for handler phases.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	s := SpanFromContext(ctx).Child(name)
	return ContextWithSpan(ctx, s), s
}

// ---- fleet-hop header codec ----

// FormatTraceHeader renders the outgoing X-HAP-Trace value for a fleet
// forward hop: "traceID-parentSpanIDhex".
func FormatTraceHeader(traceID string, parent uint64) string {
	if parent == 0 {
		return traceID
	}
	return traceID + "-" + strconv.FormatUint(parent, 16)
}

// ParseTraceHeader splits a fleet forward hop's X-HAP-Trace value into the
// trace ID and the forwarding node's hop-span ID to parent under. Only
// forwarded requests carry that form — an end client's value is an opaque
// ID, never parsed. A malformed suffix is treated as part of the ID rather
// than rejected.
func ParseTraceHeader(v string) (id string, parent uint64) {
	i := strings.LastIndexByte(v, '-')
	if i < 0 {
		return v, 0
	}
	p, err := strconv.ParseUint(v[i+1:], 16, 64)
	if err != nil {
		return v, 0
	}
	return v[:i], p
}

// EncodeSpans renders span records for the X-HAP-Trace-Spans response
// header: base64(JSON array). Empty input encodes to "".
func EncodeSpans(spans []SpanRecord) string {
	if len(spans) == 0 {
		return ""
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return ""
	}
	return base64.StdEncoding.EncodeToString(b)
}

// DecodeSpans reverses EncodeSpans; malformed input yields nil (a trace
// missing a hop's spans is still a usable trace).
func DecodeSpans(v string) []SpanRecord {
	if v == "" {
		return nil
	}
	b, err := base64.StdEncoding.DecodeString(v)
	if err != nil {
		return nil
	}
	var spans []SpanRecord
	if err := json.Unmarshal(b, &spans); err != nil {
		return nil
	}
	return spans
}
