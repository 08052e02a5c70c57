// The bounded in-memory ring of completed traces behind GET
// /v1/debug/traces, and the Chrome trace-event renderer that turns one
// trace into a file chrome://tracing (or Perfetto) opens directly.

package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// DefaultRingSize is how many completed traces a Collector retains when
// the capacity is left at zero.
const DefaultRingSize = 256

// TraceRecord is a trace's export form, as the debug endpoints serve it.
type TraceRecord struct {
	TraceID string       `json:"trace_id"`
	Node    string       `json:"node,omitempty"`
	StartUS int64        `json:"start_us"`
	DurUS   int64        `json:"dur_us"`
	Spans   []SpanRecord `json:"spans"`
}

// Root returns the trace's root span: of the records with parent 0, the
// earliest start, the first recorded among equal starts. A zero record if
// there is none.
func (r *TraceRecord) Root() SpanRecord {
	var root SpanRecord
	found := false
	for _, sp := range r.Spans {
		if sp.Parent == 0 && (!found || sp.StartUS < root.StartUS) {
			root, found = sp, true
		}
	}
	return root
}

// Collector is a fixed-capacity ring of completed traces: the newest N are
// kept, older ones fall off. It keeps each trace itself, typed, and builds
// the export form only when asked for one. Safe for concurrent use. A nil
// *Collector is valid and inert — that is the "tracing disabled" state.
type Collector struct {
	mu   sync.Mutex
	cap  int
	recs []*Trace // ring storage
	next int      // insertion index
	n    int      // live count (<= cap)
}

// NewCollector builds a ring keeping up to capacity traces
// (DefaultRingSize when capacity <= 0).
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	return &Collector{cap: capacity, recs: make([]*Trace, capacity)}
}

// Add closes t (as Finish does, without exporting it) and stores it,
// evicting the oldest at capacity. Call after t's root span has ended.
// No-op on a nil collector or nil trace.
func (c *Collector) Add(t *Trace) {
	if c == nil || t == nil {
		return
	}
	t.close()
	c.mu.Lock()
	c.recs[c.next] = t
	c.next = (c.next + 1) % c.cap
	if c.n < c.cap {
		c.n++
	}
	c.mu.Unlock()
}

// Traces returns retained traces, newest first.
func (c *Collector) Traces() []*Trace {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Trace, 0, c.n)
	for i := 1; i <= c.n; i++ {
		out = append(out, c.recs[(c.next-i+c.cap)%c.cap])
	}
	return out
}

// Get returns the newest trace with the given ID.
func (c *Collector) Get(id string) (*Trace, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 1; i <= c.n; i++ {
		if t := c.recs[(c.next-i+c.cap)%c.cap]; t.id == id {
			return t, true
		}
	}
	return nil, false
}

// chromeEvent mirrors the Chrome trace-event JSON shape used by
// hap.WriteTrace (internal/sim): "X" complete events with microsecond
// timestamps, plus "M" metadata events naming each process.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`
	Dur  int64             `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChrome renders one trace as a Chrome trace-event file: each node in
// the trace becomes a process (named by a metadata event), each span an
// "X" complete event with its attrs under args. Timestamps are rebased to
// the trace start so the timeline opens at zero.
func WriteChrome(w io.Writer, r *TraceRecord) error {
	// Stable process numbering: nodes sorted, first-seen request node first
	// would be nicer but sorted is deterministic across exports.
	nodeSet := map[string]bool{}
	for _, sp := range r.Spans {
		nodeSet[sp.Node] = true
	}
	nodes := make([]string, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	pid := make(map[string]int, len(nodes))
	events := make([]chromeEvent, 0, len(r.Spans)+len(nodes))
	for i, n := range nodes {
		pid[n] = i
		name := n
		if name == "" {
			name = "hap-serve"
		}
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", PID: i,
			Args: map[string]string{"name": name},
		})
	}
	spans := make([]SpanRecord, len(r.Spans))
	copy(spans, r.Spans)
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartUS < spans[j].StartUS })
	for _, sp := range spans {
		dur := sp.DurUS
		if dur < 1 {
			dur = 1 // zero-width events vanish in the viewer
		}
		events = append(events, chromeEvent{
			Name: sp.Name,
			Cat:  "hap",
			Ph:   "X",
			TS:   sp.StartUS - r.StartUS,
			Dur:  dur,
			PID:  pid[sp.Node],
			TID:  1,
			Args: sp.Attrs,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}
