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
// When tracing is on, a trace costs a constant few allocations, not a few
// per span. A Trace hands out its spans from chunks it owns (the first
// chunk inline, so a caller that embeds a Trace holds a short trace in its
// own allocation) and keeps every span's attributes typed, in one slab:
// numbers are formatted only when someone reads the trace. SpanRecord, with
// its map of string attributes, is the export form, built by Finish and
// Export, and by nothing on the request path. Collector.Add keeps the trace
// itself, without copying its records. Trace.EncodeSpans writes the spans
// header straight from the typed spans; DecodeSpans reads it back.
//
// Span IDs are random uint64s rather than per-trace sequence numbers so
// that spans recorded independently on two fleet nodes merge into one
// trace by plain append, with no renumbering pass. They need to be unique,
// not secret, so they come from math/rand's auto-seeded global generator
// (math/rand/v2 needs a go 1.22 module); trace IDs, which clients see and
// choose, come from crypto/rand. Merge stores another node's records as
// ended spans of the trace beside its own, so every reader walks one
// sequence of spans.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"math"
	mrand "math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
)

// TraceHeader carries the trace identity on requests and responses:
// "traceID" from clients, "traceID-parentSpanID" on fleet forward hops so
// the remote node parents its work under the proxying node's hop span.
// Header names are spelled canonically (http.CanonicalHeaderKey), so
// Header.Get and Set find them without rewriting the key.
const TraceHeader = "X-Hap-Trace"

// SpansHeader returns the remote node's span records (base64 of JSON) on
// responses to fleet-forwarded requests, so the proxying node can merge
// them into the client-facing trace. Never set on responses to end clients.
const SpansHeader = "X-Hap-Trace-Spans"

// SpanRecord is one completed (or provisionally snapshotted) span in its
// export form. Times are Unix microseconds to match the Chrome trace-event
// format's unit.
type SpanRecord struct {
	ID      uint64            `json:"id"`
	Parent  uint64            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	Node    string            `json:"node,omitempty"`
	StartUS int64             `json:"start_us"`
	DurUS   int64             `json:"dur_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Storage sizes. A cache hit records 3 spans and at most 5 attributes, so
// it fits the inline chunk; a miss records ~16 spans and ~35 attributes.
const (
	inlineSpans = 4
	inlineAttrs = 6
	chunkSpans  = 16
)

// attrKind tags the value an attr holds.
type attrKind uint8

const (
	attrStr attrKind = iota
	attrInt
	attrFloat
	attrBool
)

// attr is one typed span attribute in its trace's slab. A span's attributes
// are a chain through prev, newest first.
type attr struct {
	key  string
	str  string // attrStr
	num  uint64 // attrInt: int64 bits; attrFloat: float64 bits; attrBool: 0 or 1
	prev int32  // slab index + 1 of the span's previous attribute; 0 ends the chain
	kind attrKind
}

// value formats the attribute as its export form does.
func (a *attr) value() string {
	switch a.kind {
	case attrInt:
		return itoa(int64(a.num))
	case attrFloat:
		return ftoa(math.Float64frombits(a.num))
	case attrBool:
		if a.num != 0 {
			return "true"
		}
		return "false"
	}
	return a.str
}

// spanChunk is heap storage for the spans past the inline chunk. Chunks are
// never moved, so a *Span stays valid for the trace's life.
type spanChunk struct {
	spans [chunkSpans]Span
	next  *spanChunk
}

// Trace accumulates the spans of one request, its own and those merged
// from other fleet nodes, in one storage. Its storage is guarded by mu:
// MoE portfolio arms open, annotate and end spans of one trace from two
// goroutines.
// A nil *Trace is valid and inert.
type Trace struct {
	id   string
	node string

	mu     sync.Mutex
	n      int // spans handed out
	first  [inlineSpans]Span
	head   *spanChunk // chunks past first, oldest first
	tail   *spanChunk
	attrs  []attr // the attribute slab; starts on attrs0
	attrs0 [inlineAttrs]attr
	recs   int32 // records so far: ended spans and merged ones
	closed bool  // Finish or Collector.Add ran: the records are fixed
}

// New starts a trace. An empty id mints a fresh random one; node labels
// every span recorded here (fleet advertise URL, or "" standalone).
func New(id, node string) *Trace {
	t := new(Trace)
	t.Init(id, node)
	return t
}

// Init starts a zero Trace in place, as New does on the heap: a caller that
// embeds a Trace in its own per-request struct pays no allocation for it.
// Init must not be called on a trace in use.
func (t *Trace) Init(id, node string) {
	if id == "" {
		id = NewTraceID()
	}
	t.id, t.node = id, node
}

// NewTraceID returns a 16-hex-digit random trace identifier.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a fixed ID keeps the
		// request path alive at the cost of trace collisions.
		return "0000000000000000"
	}
	var h [16]byte
	hex.Encode(h[:], b[:])
	return string(h[:])
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
	return t.open(name, parent)
}

// open hands out the next span slot, or nil once the trace is closed.
func (t *Trace) open(name string, parent uint64) *Span {
	id, start := newSpanID(), time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	s := t.slot()
	*s = Span{t: t, id: id, parent: parent, name: name, node: t.node, start: start}
	return s
}

// slot returns the storage of the next span, adding a chunk when the last
// one is full. Call with mu held.
func (t *Trace) slot() *Span {
	i := t.n
	t.n++
	if i < inlineSpans {
		return &t.first[i]
	}
	i = (i - inlineSpans) % chunkSpans
	if i == 0 {
		c := new(spanChunk)
		if t.tail == nil {
			t.head = c
		} else {
			t.tail.next = c
		}
		t.tail = c
	}
	return &t.tail.spans[i]
}

// each calls fn on every span handed out, open ones included. Call with mu
// held.
func (t *Trace) each(fn func(*Span)) {
	for i := 0; i < t.n && i < inlineSpans; i++ {
		fn(&t.first[i])
	}
	n := t.n - inlineSpans
	for c := t.head; c != nil; c = c.next {
		for i := 0; i < n && i < chunkSpans; i++ {
			fn(&c.spans[i])
		}
		n -= chunkSpans
	}
}

// Merge stores span records from another node as ended spans of the
// trace, each with its ID, parent, name, node, start, duration and
// attributes (random span IDs make this collision-safe). No-op on nil and
// on a closed trace.
func (t *Trace) Merge(spans []SpanRecord) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	for i := range spans {
		r := &spans[i]
		s := t.slot()
		*s = Span{t: t, id: r.ID, parent: r.Parent, name: r.Name, node: r.Node, start: time.UnixMicro(r.StartUS), durUS: r.DurUS}
		for k, v := range r.Attrs {
			t.push(s, attr{key: k, str: v, kind: attrStr})
		}
		t.end(s)
	}
}

// records builds the export form of every record, in record order. Call
// with mu held.
func (t *Trace) records() []SpanRecord {
	out := make([]SpanRecord, t.recs)
	t.each(func(s *Span) {
		if s.rec != 0 {
			out[s.rec-1] = s.record()
		}
	})
	return out
}

// Finish closes the trace and returns its export form. Spans ended,
// attributes set and records merged after it are dropped. Call after the
// root span has ended. Returns nil on a nil trace.
func (t *Trace) Finish() *TraceRecord {
	if t == nil {
		return nil
	}
	t.close()
	return t.Export()
}

// close fixes the trace's records: later writes are dropped, so a reader
// of a closed trace sees what it held when it closed.
func (t *Trace) close() {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
}

// Export builds the trace's export form: every record so far, in record
// order, with the trace's extent. Returns nil on a nil trace.
func (t *Trace) Export() *TraceRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := &TraceRecord{TraceID: t.id, Node: t.node, Spans: t.records()}
	rec.StartUS, rec.DurUS = t.extent()
	return rec
}

// extent returns the trace's start and duration in microseconds: from the
// earliest start to the latest end, which need not belong to one record,
// since merged fleet records carry another node's clock. Call with mu held.
func (t *Trace) extent() (startUS, durUS int64) {
	var end int64
	first := true
	t.each(func(s *Span) {
		if s.rec == 0 {
			return
		}
		start := s.start.UnixMicro()
		if first || start < startUS {
			startUS = start
		}
		if e := start + s.durUS; first || e > end {
			end = e
		}
		first = false
	})
	return startUS, end - startUS
}

// Each calls fn with the name, node and duration of every record, own
// ended spans and merged ones, in no set order and without building
// records. fn must not call back into the trace.
func (t *Trace) Each(fn func(name, node string, durUS int64)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.each(func(s *Span) {
		if s.rec != 0 {
			fn(s.name, s.node, s.durUS)
		}
	})
}

// find returns s's attribute key, or nil. Call with mu held.
func (t *Trace) find(s *Span, key string) *attr {
	for i := s.attrs; i != 0; i = t.attrs[i-1].prev {
		if a := &t.attrs[i-1]; a.key == key {
			return a
		}
	}
	return nil
}

// push appends a to the slab as s's newest attribute, growing the slab
// past the inline chunk. Call with mu held.
func (t *Trace) push(s *Span, a attr) {
	if t.attrs == nil {
		t.attrs = t.attrs0[:0]
	}
	a.prev = s.attrs
	t.attrs = append(t.attrs, a)
	s.attrs = int32(len(t.attrs))
}

// end records s, fixing its place in the record order. Call with mu held.
func (t *Trace) end(s *Span) {
	t.recs++
	s.rec = t.recs
}

// Span measures one phase. A nil *Span is valid and inert, which is the
// entire hot-path contract: hap-layer hooks call these methods without
// checking whether tracing is enabled. Its mutable fields belong to its
// trace's mutex.
type Span struct {
	t      *Trace
	id     uint64
	parent uint64
	name   string
	node   string // the node that recorded the span
	start  time.Time
	durUS  int64 // set by End
	attrs  int32 // slab index + 1 of the newest attribute; 0 = none
	rec    int32 // position + 1 in the trace's record order; 0 while open
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

// Child opens a sub-span. Returns nil (still inert) on a nil receiver and
// once the trace is closed.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.open(name, s.id)
}

// SetAttrStr attaches a string attribute; setting a key again replaces its
// value. No-op on nil and on an ended span, whose record is fixed.
func (s *Span) SetAttrStr(key, v string) {
	if s == nil {
		return
	}
	s.set(attr{key: key, str: v, kind: attrStr})
}

// SetAttrInt attaches an integer attribute. No-op on nil.
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.set(attr{key: key, num: uint64(v), kind: attrInt})
}

// SetAttrFloat attaches a float attribute. No-op on nil.
func (s *Span) SetAttrFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.set(attr{key: key, num: math.Float64bits(v), kind: attrFloat})
}

// SetAttrBool attaches a boolean attribute. No-op on nil.
func (s *Span) SetAttrBool(key string, v bool) {
	if s == nil {
		return
	}
	var n uint64
	if v {
		n = 1
	}
	s.set(attr{key: key, num: n, kind: attrBool})
}

// set stores a on s: over the value of its key if s has one, else at the
// end of the slab.
func (s *Span) set(a attr) {
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.rec != 0 || t.closed {
		return
	}
	if old := t.find(s, a.key); old != nil {
		a.prev = old.prev
		*old = a
		return
	}
	t.push(s, a)
}

// End closes the span and records it on its trace. Ending twice records
// once. No-op on nil and on a closed trace.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.rec != 0 || t.closed {
		return
	}
	s.durUS = d.Microseconds()
	t.end(s)
}

// record builds the export form of s, an ended span. Call with mu held.
func (s *Span) record() SpanRecord {
	r := SpanRecord{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		Node:    s.node,
		StartUS: s.start.UnixMicro(),
		DurUS:   s.durUS,
	}
	if s.attrs != 0 {
		r.Attrs = make(map[string]string, 4)
		t := s.t
		for i := s.attrs; i != 0; i = t.attrs[i-1].prev {
			a := &t.attrs[i-1]
			r.Attrs[a.key] = a.value()
		}
	}
	return r
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

// EncodeSpans renders the trace's X-HAP-Trace-Spans header, base64 of a
// JSON array, straight from its typed spans: every record so far, in
// record order, then a provisional record of open, a span still running,
// measured now. The members are those of SpanRecord, with attributes in no
// set order, so any version's DecodeSpans reads it. "" on a nil trace and
// when there is nothing to write.
func (t *Trace) EncodeSpans(open *Span) string {
	if t == nil {
		return ""
	}
	var openUS int64
	if open != nil {
		openUS = time.Since(open.start).Microseconds()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := make([]*Span, t.recs, t.recs+1)
	t.each(func(s *Span) {
		if s.rec != 0 {
			spans[s.rec-1] = s
		}
	})
	if open != nil {
		spans = append(spans, open)
	}
	if len(spans) == 0 {
		return ""
	}
	b := make([]byte, 0, recordBytes*len(spans))
	for i, s := range spans {
		if i == 0 {
			b = append(b, '[')
		} else {
			b = append(b, ',')
		}
		durUS := s.durUS
		if i == int(t.recs) {
			durUS = openUS
		}
		b = t.appendSpan(b, s, durUS)
	}
	return base64.StdEncoding.EncodeToString(append(b, ']'))
}

// recordBytes is about the JSON size of one span record, the encoder's
// buffer estimate: a miss's 16 records take ~2.5 KiB.
const recordBytes = 256

// appendSpan appends s's record with duration durUS as a JSON object, its
// attribute values formatted as value does. Call with mu held.
func (t *Trace) appendSpan(b []byte, s *Span, durUS int64) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, s.id, 10)
	if s.parent != 0 {
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, s.parent, 10)
	}
	b = append(b, `,"name":`...)
	b = appendString(b, s.name)
	if s.node != "" {
		b = append(b, `,"node":`...)
		b = appendString(b, s.node)
	}
	b = append(b, `,"start_us":`...)
	b = strconv.AppendInt(b, s.start.UnixMicro(), 10)
	b = append(b, `,"dur_us":`...)
	b = strconv.AppendInt(b, durUS, 10)
	if s.attrs != 0 {
		b = append(b, `,"attrs":{`...)
		for i := s.attrs; i != 0; i = t.attrs[i-1].prev {
			a := &t.attrs[i-1]
			if i != s.attrs {
				b = append(b, ',')
			}
			b = appendString(b, a.key)
			b = append(b, ':')
			switch a.kind {
			case attrInt:
				b = append(b, '"')
				b = strconv.AppendInt(b, int64(a.num), 10)
				b = append(b, '"')
			case attrFloat:
				b = append(b, '"')
				b = strconv.AppendFloat(b, math.Float64frombits(a.num), 'g', -1, 64)
				b = append(b, '"')
			default:
				b = appendString(b, a.value())
			}
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendString appends s as a JSON string. Only the quote, the backslash and
// control characters are escaped; other bytes are copied, and a decoder
// reads invalid UTF-8 as U+FFFD, as encoding/json writes it.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// DecodeSpans reads a spans header, as Trace.EncodeSpans writes it and as
// encoding/json wrote it in earlier versions; malformed input yields nil (a
// trace missing a hop's spans is still a usable trace).
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
