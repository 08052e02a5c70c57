package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// The speed probe. On the 2-vCPU reference box the same planner call takes
// 350–460 ms depending on the minute: the host's other tenants slow memory
// and allocation-heavy Go code by up to 25 % for minutes at a time, while an
// arithmetic loop barely moves (3 %). Per-input minima, CPU time and longer
// runs do not remove that; a reference workload timed in the same run does.
// So every run interleaves a fixed, standard-library-only piece of work with
// its calls, and reports times at reference speed:
//
//	time at reference speed = measured time × nominal probe time ÷ this run's median probe time
//
// A probe is only useful if the machine state that slows the calls slows it
// by the same share, so the two call paths have their own: the planner is
// tracked best by pointer-chasing over a few MB of fresh small objects
// (normalized run-to-run spread 2–4 % against 9–13 % raw), a cache hit —
// mostly JSON decoding — by that plus a JSON decode (3–5 % against 11–16 %).
// The probes are fixed work in this directory, which a change that claims a
// gain may not edit, so a slower planner or handler shows in full.

// probeKind selects the probe of a workload.
type probeKind int

const (
	memProbe     probeKind = iota // library path
	memJSONProbe                  // daemon path
)

// nominalMS is the probe's median time on the reference box when the
// benchmark was sized: the speed every reported time is scaled to.
func (k probeKind) nominalMS() float64 {
	if k == memJSONProbe {
		return 24
	}
	return 16
}

// probeInterval is how much call time passes between probes: about a tenth
// of the timed section goes to probing.
func (k probeKind) interval() time.Duration {
	if k == memJSONProbe {
		return 170 * time.Millisecond
	}
	return 120 * time.Millisecond
}

func (k probeKind) run() time.Duration {
	t := time.Now()
	probeMem()
	if k == memJSONProbe {
		probeJSON()
	}
	return time.Since(t)
}

// probeSink keeps the compiler from discarding the probes' work.
var probeSink uint64

type probeNode struct {
	next *probeNode
	key  uint64
	val  []int
}

// probeMem allocates 40 000 small linked nodes (≈4 MB), indexes them in a
// map, sorts their keys and walks the list: allocation, hashing, comparison
// sort and pointer chasing over a working set larger than the private caches.
func probeMem() {
	const n = 40000
	m := make(map[uint64]*probeNode, 1024)
	var head *probeNode
	x := uint64(88172645463325252)
	keys := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		nd := &probeNode{next: head, key: x, val: make([]int, 4)}
		head = nd
		m[x%20011] = nd
		keys = append(keys, x)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	s := uint64(0)
	for p := head; p != nil; p = p.next {
		s += p.key + uint64(len(p.val))
	}
	probeSink += s + keys[n/2] + uint64(len(m))
}

// probeDoc is a fixed 47 KB JSON document shaped like a graph body.
var probeDoc = func() []byte {
	type item struct {
		ID     int                `json:"id"`
		Name   string             `json:"name"`
		Shape  []int              `json:"shape"`
		Inputs []int              `json:"inputs"`
		Attrs  map[string]float64 `json:"attrs"`
	}
	var items []item
	for i := 0; i < 300; i++ {
		items = append(items, item{
			ID: i, Name: fmt.Sprintf("node-%d", i), Shape: []int{i, 2 * i, 3}, Inputs: []int{i / 2, i / 3},
			Attrs: map[string]float64{"flops": float64(i) * 1.5, "scale": 0.25},
		})
	}
	doc, err := json.MarshalIndent(map[string]any{"version": 1, "nodes": items}, "", "  ")
	if err != nil {
		panic(err)
	}
	return doc
}()

// probeJSON decodes probeDoc five times with encoding/json.
func probeJSON() {
	for i := 0; i < 5; i++ {
		var v map[string]any
		if err := json.Unmarshal(probeDoc, &v); err != nil {
			panic(err)
		}
		probeSink += uint64(len(v))
	}
}
