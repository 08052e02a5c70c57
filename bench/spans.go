package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval of the traced run: a root span per call (or
// per staged replay) and a child span around each public call into a layer.
// Spans of one call share its id. Times are offsets from the recorder's
// epoch.
type span struct {
	Name   string
	Parent int // index of the parent span, -1 for a root
	Call   int // id of the call the span belongs to
	Start  time.Duration
	End    time.Duration
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the untraced and the traced run share one code path.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, call int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Call: call, Start: time.Since(r.epoch), End: -1})
	return len(r.spans) - 1
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil || id < 0 {
		return 0
	}
	s := &r.spans[id]
	s.End = time.Since(r.epoch)
	return s.End - s.Start
}

// selfTimes returns, per span, its duration minus the part of that interval
// its direct children cover (overlapping children are counted once, and a
// child is clipped to its parent).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			from, to := spans[k].Start, spans[k].End
			if from < edge {
				from = edge
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// chromeEvent is one Chrome trace "complete" event (chrome://tracing,
// ui.perfetto.dev). Each call is its own thread row, so its spans nest.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every recorded span as Chrome trace events.
func (r *recorder) writeChrome(path string) error {
	self := selfTimes(r.spans)
	events := make([]chromeEvent, len(r.spans))
	for i, s := range r.spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X",
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			PID: 1, TID: s.Call,
			Args: map[string]any{"span": i, "parent": s.Parent, "call": s.Call, "self_us": float64(self[i]) / float64(time.Microsecond)},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
