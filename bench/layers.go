package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"syscall"

	"hap"
	"hap/client"
	"hap/internal/balance"
	"hap/internal/cluster"
	"hap/internal/cost"
	"hap/internal/dist"
	"hap/internal/graph"
	"hap/internal/hapopt"
	"hap/internal/passes"
	"hap/internal/segment"
	"hap/internal/serve"
	"hap/internal/sim"
	"hap/internal/synth"
	"hap/internal/theory"
)

// Repetitions of the traced run's layer measurements; the reported time is
// the fastest. Whole searches get fewer repetitions than the sub-100 ms
// layers so the traced run fits the run-time cap.
const (
	layerReps  = 5
	searchReps = 3
	planReps   = 2
	// missVariants is how many distinct near-miss variants per input the
	// layer daemon synthesizes (each is a first-time miss).
	missVariants = 3
)

// traced is the traced run: a short untraced section (run.* and proc.*
// metrics), the same section again with a root span per call (the tracing
// overhead), then the staged replay of every layer on the workload's inputs.
func (e *env) traced(rounds int, res *result) error {
	rec := newRecorder()
	short := rounds / 4
	if short < 2 {
		short = e.cfg.reps(2)
	}
	sec := e.timed(short, nil)
	var pooled []float64
	for _, s := range e.series {
		pooled = append(pooled, s.ms...)
	}
	res.put("run.call_p50_ms", quantile(pooled, 0.5), "ms")
	res.put("run.call_p90_ms", quantile(pooled, 0.9), "ms")
	res.put("run.input_p90_ms", geomean(e.over(func(s *series) float64 { return quantile(s.ms, 0.9) })), "ms")
	res.put("run.round_iqr_share", iqrShare(sec.roundMS), "ratio")
	res.put("proc.gc_cycles_per_call", float64(sec.gcCycles)/float64(sec.calls), "count")
	untraced := e.callMedian()

	for _, s := range e.series {
		s.ms = s.ms[:0]
	}
	e.timed(short, rec)
	res.put("trace.overhead_share", e.callMedian()/untraced-1, "ratio")
	res.put("run.probe_ms", quantile(e.probeMS, 0.5), "ms")
	e.finish()
	e.printSeries()
	if e.fatal != nil {
		return e.fatal
	}
	if e.srv != nil {
		e.serveCounters(e.srv.Stats(), res)
	}

	m := &meter{e: e, rec: rec, call: short * len(e.round), values: map[string][]float64{}}
	if err := m.layers(res); err != nil {
		return err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	res.put("proc.peak_rss_mb", float64(ru.Maxrss)/1024, "MiB") // Linux reports KiB
	return rec.writeChrome(filepath.Join(e.cfg.outDir, "trace-"+e.w.name+".json"))
}

// serveCounters reports the cache counters of the daemon that served the
// calls; the call pattern fixes them, so they must repeat exactly.
func (e *env) serveCounters(st serve.Stats, res *result) {
	res.put("serve.hit_share", float64(st.CacheHits)/float64(st.CacheHits+st.CacheMisses), "ratio")
	res.put("serve.seeded_share", float64(st.SynthIncremental)/float64(st.Syntheses), "ratio")
	res.put("serve.evictions", float64(st.CacheEvictions), "count")
}

// meter collects per-input layer measurements; times and sizes are reported
// as the geometric mean over the inputs, counts as their sum.
type meter struct {
	e      *env
	rec    *recorder
	call   int // next call id
	values map[string][]float64

	// The layer daemon: a fresh daemon holding every input, for the
	// handler- and client-level measurements of workloads whose own calls
	// do not go through one.
	srv     *serve.Server
	handler http.Handler
	ts      *httptest.Server
	client  *client.Client
}

// span times f under a child span of parent and returns milliseconds.
func (m *meter) span(name string, parent int, f func()) float64 {
	id := m.rec.begin(name, parent, m.call)
	f()
	return ms(m.rec.end(id))
}

// fastest is the per-input "fastest of reps" of one layer call, each
// repetition a child span of parent.
func (m *meter) fastest(name string, parent, reps int, f func()) float64 {
	best := math.Inf(1)
	for i := m.e.cfg.reps(reps); i > 0; i-- {
		if d := m.span(name, parent, f); d < best {
			best = d
		}
	}
	return best
}

func (m *meter) add(name string, v float64) { m.values[name] = append(m.values[name], v) }

// keepMin lowers dst to src wherever src is smaller or dst has no entry.
func keepMin(dst, src map[string]float64) {
	for k, v := range src {
		if old, ok := dst[k]; !ok || v < old {
			dst[k] = v
		}
	}
}

func (m *meter) layers(res *result) error {
	// Room for every input and two variants: the third evicts.
	m.srv = newDaemon(len(m.e.inputs) + 2)
	defer m.srv.Close()
	m.handler = m.srv.Handler()
	m.ts = httptest.NewServer(m.handler)
	defer m.ts.Close()
	hc := oneConnection()
	defer hc.CloseIdleConnections()
	m.client = client.New(m.ts.URL, client.WithHTTPClient(hc))

	for _, in := range m.e.inputs {
		if err := m.input(in); err != nil {
			return fmt.Errorf("layers of %s: %w", in.name, err)
		}
		m.call++
	}

	// client.healthz_ms is the loopback floor: a GET with a 60-byte answer.
	side := m.rec.begin("side healthz", -1, m.call)
	var herr error
	healthz := m.fastest("client.Healthz", side, 4*layerReps, func() {
		if v, err := m.client.Healthz(context.Background()); err != nil || v != serve.ProtocolVersion {
			herr = fmt.Errorf("healthz answered protocol %q, %v", v, err)
		}
	})
	m.rec.end(side)
	if herr != nil {
		return herr
	}
	res.put("client.healthz_ms", healthz, "ms")
	if m.e.srv == nil {
		m.e.serveCounters(m.srv.Stats(), res)
	}
	res.put("runtime.verify_ms", m.e.verifyMS, "ms")

	v := m.values
	for _, name := range []string{
		"graph.decode_ms", "graph.encode_ms", "graph.fingerprint_ms", "graph.subfp_ms", "graph.diff_ms",
		"cluster.decode_ms", "segment.assign_ms", "theory.build_ms",
		"synth.search_ms", "synth.seed_build_ms", "synth.seeded_search_ms",
		"passes.run_ms", "cost.extract_ms", "balance.solve_ms",
		"hapopt.staged_iter_ms", "hapopt.optimize_ms", "sim.iter_ms",
		"dist.encode_bin_ms", "dist.decode_bin_ms", "dist.encode_json_ms", "dist.validate_ms",
		"hap.plan_ms", "hap.write_bin_ms", "hap.read_bin_ms",
		"serve.handler_hit_ms", "serve.handler_304_ms", "serve.handler_miss_ms",
		"client.encode_ms", "client.roundtrip_ms",
	} {
		res.put(name, geomean(v[name]), "ms")
	}
	for _, name := range []string{"graph.json_kb", "dist.bin_kb", "dist.json_kb"} {
		res.put(name, geomean(v[name]), "KiB")
	}
	for _, name := range []string{
		"graph.nodes", "theory.triples", "synth.expansions", "synth.pushed", "synth.seeded_expansions",
		"passes.rewrites", "passes.collectives_out", "dist.instructions",
	} {
		res.put(name, sum(v[name]), "count")
	}
	res.put("serve.handler_hit_allocs", mean(v["serve.handler_hit_allocs"]), "count")
	res.put("synth.us_per_expansion", 1000*sum(v["synth.search_ms"])/sum(v["synth.expansions"]), "us")
	res.put("synth.workers2_ratio", geomean(v["synth.workers2_ratio"]), "ratio")
	res.put("synth.seeded_ratio", geomean(v["synth.seeded_ratio"]), "ratio")
	res.put("hapopt.iter_equiv", geomean(v["hapopt.iter_equiv"]), "ratio")
	res.put("cost.model_gap", geomean(v["cost.model_gap"]), "ratio")
	res.put("baselines.dp_iter_time_s", geomean(v["baselines.dp_iter_time_s"]), "s")
	res.put("baselines.speedup_vs_dp", geomean(v["baselines.speedup_vs_dp"]), "ratio")
	// Shares say where the time goes, so they weigh inputs by their time:
	// each is a sum over inputs divided by a sum over inputs, both taken
	// from every input's fastest whole repetition.
	staged := sum(v["share.staged"])
	res.put("synth.share", sum(v["share.search"])/staged, "ratio")
	res.put("balance.share", sum(v["share.balance"])/staged, "ratio")
	res.put("hapopt.residual_share", sum(v["share.staged_self"])/staged, "ratio")
	res.put("serve.residual_share", sum(v["share.handler_self"])/sum(v["share.handler"]), "ratio")
	// A residual of per-input minima can dip below zero: mean, not geomean.
	res.put("client.transport_ms", mean(v["client.transport_ms"]), "ms")
	return nil
}

// post sends one request body straight into the daemon's handler, no socket.
func (m *meter) post(body []byte, etag string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/synthesize", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", serve.BinaryPlanContentType)
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	rr := httptest.NewRecorder()
	m.handler.ServeHTTP(rr, req)
	return rr
}

// input measures every layer on one input: the staged planner iteration,
// the plan codecs, the staged request and the seeded re-plan of a variant.
func (m *meter) input(in *input) error {
	ctx := context.Background()
	c := in.cluster
	reps := m.e.cfg.reps(layerReps)
	var fail error
	try := func(err error) {
		if err != nil && fail == nil {
			fail = err
		}
	}
	search := synth.Auto()
	search.Workers = 1

	// One staged iteration of the Q↔B loop at B⁽⁰⁾, in pipeline order.
	var (
		g      *graph.Graph
		th     *theory.Theory
		prog   *dist.Program
		st     synth.Stats
		ps     passes.Stats
		b0     [][]float64
		best   = map[string]float64{}
		stages map[string]float64
	)
	for rep := 0; rep < reps && fail == nil; rep++ {
		g = in.build()
		d := map[string]float64{}
		root := m.rec.begin("staged iteration "+in.name, -1, m.call)
		if in.segments > 1 {
			d["segment.assign_ms"] = m.span("segment.Assign", root, func() { segment.Assign(g, in.segments) })
		}
		d["theory.build_ms"] = m.span("theory.New", root, func() { th = theory.New(g) })
		b0 = cost.UniformRatios(g.NumSegments(), c.ProportionalRatios())
		d["synth.search_ms"] = m.span("synth.Synthesize", root, func() {
			var err error
			prog, st, err = synth.Synthesize(ctx, g, th, c, b0, search)
			try(err)
		})
		if fail != nil {
			break
		}
		d["passes.run_ms"] = m.span("passes.Default.Run", root, func() {
			var err error
			ps, err = passes.Default().Run(prog, c)
			try(err)
		})
		var model *cost.Model
		d["cost.extract_ms"] = m.span("cost.Extract", root, func() { model = cost.Extract(c, prog) })
		var ratios [][]float64
		d["balance.solve_ms"] = m.span("balance.RatiosFromModel", root, func() {
			var err error
			ratios, err = balance.RatiosFromModel(model)
			try(err)
		})
		if fail != nil {
			break
		}
		m.span("cost.Model.Eval", root, func() { model.Eval(ratios) })
		d["hapopt.staged_iter_ms"] = ms(m.rec.end(root))
		keepMin(best, d)
		if stages == nil || d["hapopt.staged_iter_ms"] < stages["hapopt.staged_iter_ms"] {
			stages = d
		}
	}
	if fail != nil {
		return fail
	}
	side := m.rec.begin("side layers "+in.name, -1, m.call)
	defer func() { m.rec.end(side) }()
	if in.segments <= 1 {
		// Off this input's call path: measured on a scratch graph.
		scratch := in.build()
		best["segment.assign_ms"] = m.fastest("segment.Assign", side, layerReps, func() { segment.Assign(scratch, 4) })
	}
	for k, v := range best {
		m.add(k, v)
	}
	total := stages["hapopt.staged_iter_ms"]
	self := total
	for k, v := range stages {
		if k != "hapopt.staged_iter_ms" {
			self -= v
		}
	}
	m.add("share.staged", total)
	m.add("share.search", stages["synth.search_ms"])
	m.add("share.balance", stages["balance.solve_ms"])
	m.add("share.staged_self", self)
	triples := 0
	for _, ts := range th.ByNode {
		triples += len(ts)
	}
	m.add("theory.triples", float64(triples))
	m.add("synth.expansions", float64(st.Expansions))
	m.add("synth.pushed", float64(st.Pushed))
	m.add("passes.rewrites", float64(ps.Changed))
	m.add("passes.collectives_out", float64(prog.NumComms()))

	// The same search on two workers: 2 shared vCPUs cannot show scaling,
	// the ratio keeps the parallel path visible.
	two := search
	two.Workers = 2
	w2 := m.fastest("synth.Synthesize workers=2", side, searchReps, func() {
		_, _, err := synth.Synthesize(ctx, g, th, c, b0, two)
		try(err)
	})
	m.add("synth.workers2_ratio", w2/best["synth.search_ms"])

	// The whole loop, from hapopt and from the public API.
	opt := hapopt.Options{Segments: in.segments, Synth: search}
	optimize := m.fastest("hapopt.Optimize", side, planReps, func() {
		_, err := hapopt.Optimize(ctx, in.build(), c, opt)
		try(err)
	})
	m.add("hapopt.optimize_ms", optimize)
	m.add("hapopt.iter_equiv", optimize/best["hapopt.staged_iter_ms"])
	var plan *hap.Plan
	planner := hap.NewPlanner(c, hap.WithWorkers(1), hap.WithSegments(in.segments))
	m.add("hap.plan_ms", m.fastest("hap.Planner.Plan", side, planReps, func() {
		var err error
		plan, err = planner.Plan(ctx, in.build())
		try(err)
	}))
	if fail != nil {
		return fail
	}

	// Plan quality and the plan codecs, on the plan the public API returned.
	pg := plan.Program.Graph
	iter := m.e.simulate(c, plan.Program, plan.Ratios)
	m.add("sim.iter_ms", m.fastest("sim.IterationTime", side, layerReps, func() { sim.IterationTime(c, plan.Program, plan.Ratios, m.e.cfg.seed) }))
	m.add("cost.model_gap", math.Abs(plan.Cost-iter)/iter)
	dp, err := m.e.dpBaseline(in.name, in.build, c)
	if err != nil {
		return err
	}
	m.add("baselines.dp_iter_time_s", dp)
	m.add("baselines.speedup_vs_dp", dp/iter)
	var bin, js, wire bytes.Buffer
	m.add("dist.encode_bin_ms", m.fastest("dist.Program.EncodeBinary", side, layerReps, func() { bin.Reset(); try(plan.Program.EncodeBinary(&bin)) }))
	m.add("dist.decode_bin_ms", m.fastest("dist.DecodeBinary", side, layerReps, func() {
		_, err := dist.DecodeBinary(bytes.NewReader(bin.Bytes()), pg)
		try(err)
	}))
	m.add("dist.encode_json_ms", m.fastest("dist.Program.Encode", side, layerReps, func() { js.Reset(); try(plan.Program.Encode(&js)) }))
	m.add("dist.validate_ms", m.fastest("dist.Program.Validate", side, layerReps, func() { try(plan.Program.Validate()) }))
	m.add("dist.instructions", float64(len(plan.Program.Instrs)))
	m.add("dist.bin_kb", float64(bin.Len())/1024)
	m.add("dist.json_kb", float64(js.Len())/1024)
	m.add("hap.write_bin_ms", m.fastest("hap.Plan.WriteProgramBinary", side, layerReps, func() { wire.Reset(); try(plan.WriteProgramBinary(&wire)) }))

	// The graph and cluster codecs, on the request body of this input.
	body, gj, cj, err := encodeRequest(g, c, in.segments)
	if err != nil {
		return err
	}
	var enc bytes.Buffer
	m.add("graph.encode_ms", m.fastest("graph.Encode", side, layerReps, func() { enc.Reset(); try(g.Encode(&enc)) }))
	m.add("graph.json_kb", float64(len(gj))/1024)
	m.add("graph.nodes", float64(g.NumNodes()))
	gv := in.variant(1)
	if in.segments > 1 {
		segment.Assign(gv, in.segments)
	}
	m.add("graph.subfp_ms", m.fastest("graph.SubFingerprints", side, layerReps, func() { graph.SubFingerprints(g) }))
	m.add("graph.diff_ms", m.fastest("graph.StructuralDiff", side, layerReps, func() { graph.StructuralDiff(g, gv) }))

	// The seeded re-plan of the variant from this input's plan, as the
	// daemon does it on a near miss: seed from the donor (its theory rebuilt,
	// as the daemon holds none), then a narrow search.
	var thv *theory.Theory
	m.span("theory.New (variant)", side, func() { thv = theory.New(gv) })
	var seed *synth.Seed
	m.add("synth.seed_build_ms", m.fastest("synth.BuildSeed", side, searchReps, func() { seed = synth.BuildSeed(pg, plan.Program, nil, gv, thv, 0) }))
	seeded := search
	seeded.Seed = seed
	bv := cost.UniformRatios(gv.NumSegments(), c.ProportionalRatios())
	var sst synth.Stats
	sms := m.fastest("synth.Synthesize seeded", side, searchReps, func() {
		var err error
		_, sst, err = synth.Synthesize(ctx, gv, thv, c, bv, seeded)
		try(err)
	})
	m.add("synth.seeded_search_ms", sms)
	m.add("synth.seeded_expansions", float64(sst.Expansions))
	m.add("synth.seeded_ratio", sms/best["synth.search_ms"])
	if fail != nil {
		return fail
	}

	// The staged request against the layer daemon: fill, then hits.
	if rr := m.post(body, ""); rr.Code != http.StatusOK || rr.Header().Get("X-HAP-Cache") != "miss" {
		return fmt.Errorf("fill answered %d (%s): %s", rr.Code, rr.Header().Get("X-HAP-Cache"), rr.Body.String())
	}
	var etag string
	req := map[string]float64{}
	for rep := 0; rep < reps; rep++ {
		d := map[string]float64{}
		root := m.rec.begin("staged request "+in.name, -1, m.call)
		d["client.encode_ms"] = m.span("client encode", root, func() {
			_, _, _, err := encodeRequest(g, c, in.segments)
			try(err)
		})
		var rr *httptest.ResponseRecorder
		d["serve.handler_hit_ms"] = m.span("serve.Handler.ServeHTTP", root, func() { rr = m.post(body, "") })
		if rr.Code != http.StatusOK || rr.Header().Get("X-HAP-Cache") != "hit" {
			return fmt.Errorf("hit answered %d (%s)", rr.Code, rr.Header().Get("X-HAP-Cache"))
		}
		etag = rr.Header().Get("ETag")
		d["hap.read_bin_ms"] = m.span("hap.ReadProgramBinary", root, func() {
			_, err := hap.ReadProgramBinary(rr.Body, g)
			try(err)
		})
		m.rec.end(root)
		// What the handler does with the body, replayed beside it.
		var gd *graph.Graph
		d["graph.decode_ms"] = m.span("graph.Decode", side, func() {
			var err error
			gd, err = graph.Decode(bytes.NewReader(gj))
			try(err)
		})
		if fail != nil {
			return fail
		}
		d["graph.fingerprint_ms"] = m.span("graph.Fingerprint", side, func() { graph.Fingerprint(gd) })
		d["cluster.decode_ms"] = m.span("cluster.Decode+Fingerprint", side, func() {
			cd, err := cluster.Decode(bytes.NewReader(cj))
			try(err)
			if err == nil {
				cd.Fingerprint()
			}
		})
		d["serve.handler_304_ms"] = m.span("serve.Handler.ServeHTTP 304", side, func() { rr = m.post(body, etag) })
		if rr.Code != http.StatusNotModified {
			return fmt.Errorf("revalidation answered %d", rr.Code)
		}
		keepMin(req, d)
	}
	for k, v := range req {
		m.add(k, v)
	}
	m.add("share.handler", req["serve.handler_hit_ms"])
	m.add("share.handler_self", req["serve.handler_hit_ms"]-req["graph.decode_ms"]-req["graph.fingerprint_ms"]-req["cluster.decode_ms"])

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 2*layerReps; i++ {
		m.post(body, "")
	}
	runtime.ReadMemStats(&after)
	m.add("serve.handler_hit_allocs", float64(after.Mallocs-before.Mallocs)/(2*layerReps))

	// The real client over loopback against the same daemon.
	roundtrip := m.fastest("client.Synthesize", side, 4*layerReps, func() {
		_, err := m.client.Synthesize(ctx, g, c, client.Options{Segments: in.segments})
		try(err)
	})
	m.add("client.roundtrip_ms", roundtrip)
	m.add("client.transport_ms", roundtrip-req["client.encode_ms"]-req["serve.handler_hit_ms"]-req["hap.read_bin_ms"])

	// First-time requests for near-miss variants: the miss path, seeded
	// from this input's cached plan.
	miss := math.Inf(1)
	for v := 1; v <= m.e.cfg.reps(missVariants); v++ {
		vbody, _, _, err := encodeRequest(in.variant(v), c, in.segments)
		if err != nil {
			return err
		}
		var rr *httptest.ResponseRecorder
		d := m.span("serve.Handler.ServeHTTP miss", side, func() { rr = m.post(vbody, "") })
		if rr.Code != http.StatusOK || rr.Header().Get("X-HAP-Cache") != "miss" {
			return fmt.Errorf("variant %d answered %d (%s): %s", v, rr.Code, rr.Header().Get("X-HAP-Cache"), rr.Body.String())
		}
		if d < miss {
			miss = d
		}
	}
	m.add("serve.handler_miss_ms", miss)
	return fail
}
