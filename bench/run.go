package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"hap"
	"hap/client"
	"hap/internal/baselines"
	"hap/internal/cluster"
	"hap/internal/graph"
	"hap/internal/models"
	"hap/internal/serve"
	"hap/internal/sim"
)

const (
	// maxCall fails the run when any one call takes longer: no planner time
	// budget is ever set, because a truncated search would make plan quality
	// depend on machine speed, so a runaway call must fail loudly instead.
	maxCall = 10 * time.Second
	// dpSlack is how much worse than the best data-parallel baseline a
	// plan's simulated iteration may be (HAP ties DP on homogeneous clusters
	// and loses up to 0.7 % to simulator noise on VGG19/het8).
	dpSlack = 1.02
	// simIterations is how many simulated iterations (link-noise seeds drawn
	// from -seed) iter_time_s averages per plan.
	simIterations = 64
	// setups is how often a run sets up; setup_s is the median.
	setups = 3
	// fullCheckEvery: on the serve workloads every call gets the light check
	// and the calls of every fullCheckEvery-th round the full one (a full
	// check costs about as much as a warm hit).
	fullCheckEvery = 10
	// maxBlocks is how many blocks of whole rounds calls_per_s takes its
	// median over.
	maxBlocks = 20
)

type config struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	outDir  string
}

// reps is n, or 1 in -smoke mode: every "how many times" goes through here.
func (c config) reps(n int) int {
	if c.smoke {
		return 1
	}
	return n
}

// series is one stream of identical calls: one input on the library path,
// one (body, fetch mode) pair on the daemon. "Per input" in the metric
// definitions means per series.
type series struct {
	label string
	in    *input
	build func() *graph.Graph
	// call makes one timed call and returns the plan and the call's time.
	call func() (*hap.Plan, time.Duration, error)
	// hit is whether the daemon must answer from its cache.
	hit bool
	// fresh marks a series whose every call sends a graph never sent before
	// (the churn's near-miss variants): its plans are compared with the
	// first one's modeled cost, not its text.
	fresh bool

	ms  []float64 // times of the timed calls, milliseconds
	ref *reference
	// rejected fails every call of the series (a failed canary, a plan worse
	// than the DP baseline).
	rejected error
	dpIter   float64 // best DP baseline's simulated iteration, seconds
}

// reference is what a series' first fully checked plan looked like; every
// later call must return the same.
type reference struct {
	program string
	instrs  int
	cost    float64
	iter    float64 // simulated iteration time, seconds
}

// env is one set-up of a workload: inputs built and checked against the
// manifest, canaries verified, daemon started and filled, one warm-up round
// done.
type env struct {
	w      *workload
	cfg    config
	inputs []*input
	series []*series
	round  []int // series indices of one round, in call order

	srv *serve.Server
	ts  *httptest.Server
	hc  *http.Client
	// wantHits and wantMisses count what the daemon's cache must have
	// answered so far.
	wantHits, wantMisses uint64

	verifyMS float64 // fastest canary hap.Verify, milliseconds
	// dp caches dpBaseline per graph: series of one input share theirs.
	dp map[string]float64

	// probeMS are the speed probe's times in this env's timed sections;
	// sinceProbe is the call time since the last one.
	probeMS    []float64
	sinceProbe time.Duration

	attempted, failed int
	fatal             error
	planBytes         []float64
}

func (e *env) close() {
	if e.ts != nil {
		e.hc.CloseIdleConnections()
		e.ts.Close()
		e.srv.Close()
	}
}

// simulate is the mean simulated iteration time of (program, ratios) over
// simIterations link-noise seeds drawn from -seed.
func (e *env) simulate(c *cluster.Cluster, p *hap.Program, ratios [][]float64) float64 {
	sum := 0.0
	for k := 0; k < simIterations; k++ {
		sum += sim.IterationTime(c, p, ratios, e.cfg.seed*simIterations+int64(k))
	}
	return sum / simIterations
}

// canary plans one small executable model on c and checks the plan
// numerically against the single-device graph. Paper-scale graphs cannot be
// the per-call check: hap.Verify takes 15–183 s on them and rejects their
// cost-only conv/attention ops.
func canary(c *cluster.Cluster, seed int64) (time.Duration, error) {
	g := models.Training(models.MLP(64, 32, 64, 32, 10))
	plan, err := hap.NewPlanner(c, hap.WithWorkers(1)).Plan(context.Background(), g)
	if err != nil {
		return 0, fmt.Errorf("canary on %v: %w", c, err)
	}
	t := time.Now()
	if err := hap.Verify(plan, c.M(), seed); err != nil {
		return 0, fmt.Errorf("canary on %v: %w", c, err)
	}
	return time.Since(t), nil
}

// setup builds one env. Everything in here is what setup_s measures.
func setup(w *workload, cfg config) (*env, error) {
	e := &env{w: w, cfg: cfg, inputs: w.inputs(), dp: map[string]float64{}}
	spec := w.serve
	if cfg.smoke {
		e.inputs = []*input{smokeInput(spec == nil)}
		if spec != nil && spec.variants > 0 {
			spec = &serveSpec{cacheEntries: 3, variants: 2}
		}
	} else if err := checkManifest(e.inputs); err != nil {
		return nil, err
	}

	canaries := map[*cluster.Cluster]error{}
	for _, in := range e.inputs {
		if _, done := canaries[in.cluster]; done {
			continue
		}
		d, err := canary(in.cluster, cfg.seed)
		canaries[in.cluster] = err
		if err == nil && (e.verifyMS == 0 || ms(d) < e.verifyMS) {
			e.verifyMS = ms(d)
		}
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	if spec == nil {
		e.setupLibrary(rng)
	} else if err := e.setupServe(spec, rng); err != nil {
		e.close()
		return nil, err
	}
	for _, s := range e.series {
		s.rejected = canaries[s.in.cluster]
	}
	return e, e.fatal
}

// setupLibrary makes one series per input, calling hap.Planner.Plan on a
// fresh graph, and warms up with one untimed round.
func (e *env) setupLibrary(rng *rand.Rand) {
	for _, in := range e.inputs {
		in := in
		planner := hap.NewPlanner(in.cluster, hap.WithWorkers(1), hap.WithSegments(in.segments))
		e.series = append(e.series, &series{
			label: in.name, in: in, build: in.build,
			call: func() (*hap.Plan, time.Duration, error) {
				g := in.build()
				t := time.Now()
				plan, err := planner.Plan(context.Background(), g)
				return plan, time.Since(t), err
			},
		})
	}
	e.round = rng.Perm(len(e.series))
	e.warmup(e.round)
}

// newDaemon is the daemon every measurement runs against: one search worker,
// no synthesis time budget, silent.
func newDaemon(cacheEntries int) *serve.Server {
	return serve.New(serve.Config{
		MaxCacheEntries: cacheEntries,
		SynthWorkers:    1,
		SynthTimeBudget: -1,
		Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
}

// oneConnection is an HTTP client whose calls all reuse one connection.
func oneConnection() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// synthesize is one timed client call.
func synthesize(cl *client.Client, in *input, g *graph.Graph) (*hap.Plan, time.Duration, error) {
	t := time.Now()
	plan, err := cl.Synthesize(context.Background(), g, in.cluster, client.Options{Segments: in.segments})
	return plan, time.Since(t), err
}

// setupServe starts an in-process daemon behind a loopback listener, one
// client connection, fills the cache with every input and warms up.
func (e *env) setupServe(spec *serveSpec, rng *rand.Rand) error {
	e.srv = newDaemon(spec.cacheEntries)
	e.ts = httptest.NewServer(e.srv.Handler())
	e.hc = oneConnection()
	full := client.New(e.ts.URL, client.WithHTTPClient(e.hc))
	if v, err := full.Healthz(context.Background()); err != nil || v != serve.ProtocolVersion {
		return fmt.Errorf("daemon health check: protocol %q, %v", v, err)
	}
	// hits is a series that sends one graph value of the input over and over.
	hits := func(cl *client.Client, in *input, mode string) *series {
		g := in.build()
		return &series{label: in.name + mode, in: in, build: in.build, hit: true,
			call: func() (*hap.Plan, time.Duration, error) { return synthesize(cl, in, g) }}
	}
	// The fill: each input's first request is its one cold miss.
	for _, in := range e.inputs {
		s := hits(full, in, "/full")
		e.series = append(e.series, s)
		e.wantMisses++
		e.warm(s)
	}

	if spec.variants == 0 {
		// Second fetch mode: revalidation, answered 304 once the warm-up
		// round has given the client its entity tags.
		cond := client.New(e.ts.URL, client.WithHTTPClient(e.hc), client.WithConditionalFetch())
		for _, in := range e.inputs {
			e.series = append(e.series, hits(cond, in, "/304"))
		}
		e.round = rng.Perm(len(e.series))
		e.warmup(e.round)
		return nil
	}

	// Churn: spec.variants times per round, every base in turn (a hit) and
	// then a near-miss variant of it that was never sent before — a miss by
	// construction, whatever the eviction order and whichever cached plan the
	// similarity index picks as donor (a donor lookup refreshes the donor's
	// recency, so "evicted before it recurs" would not hold for recurring
	// variants). A base is touched again after at most 8 other entries, so
	// the cache must hold more than that to keep every base a hit.
	next := 0
	var pairs []int
	for _, b := range rng.Perm(len(e.inputs)) {
		in := e.inputs[b]
		first := 0
		e.series = append(e.series, &series{
			label: in.name + "/miss", in: in, fresh: true,
			build: func() *graph.Graph { return in.variant(first) },
			call: func() (*hap.Plan, time.Duration, error) {
				next++
				if first == 0 {
					first = next
				}
				return synthesize(full, in, in.variant(next))
			},
		})
		pairs = append(pairs, b, len(e.series)-1)
	}
	for k := 0; k < spec.variants; k++ {
		e.round = append(e.round, pairs...)
	}
	e.warmup(pairs)
	return nil
}

// warmup makes the given calls untimed.
func (e *env) warmup(order []int) {
	for _, i := range order {
		e.count(e.series[i])
		e.warm(e.series[i])
	}
}

// warm makes one untimed call, held to the same checks as a timed call: a
// failure is fatal to the set-up.
func (e *env) warm(s *series) {
	plan, d, err := s.call()
	if err == nil {
		err = e.check(s, plan, d, true)
	}
	if err != nil && e.fatal == nil {
		e.fatal = fmt.Errorf("warm-up call %s: %w", s.label, err)
	}
}

// count books what the daemon's cache must answer for one call of s.
func (e *env) count(s *series) {
	if e.srv == nil {
		return
	}
	if s.hit {
		e.wantHits++
	} else {
		e.wantMisses++
	}
}

// check holds one returned plan to the output checks. Light: error-free,
// within maxCall, and the same instruction count and modeled cost as the
// series' reference. Full: also Program.Validate, a binary round-trip
// (WriteProgramBinary → ReadProgramBinary, which validates the ratios), the
// same Program.String() as the reference (a fresh series: a modeled cost
// within 2 % of it), and — when the plan is the first of its series — a
// finite simulated iteration time.
func (e *env) check(s *series, plan *hap.Plan, d time.Duration, full bool) error {
	if d > maxCall {
		e.fatal = fmt.Errorf("call %s took %v, over the %v cap", s.label, d, maxCall)
		return e.fatal
	}
	if plan == nil || plan.Program == nil {
		return fmt.Errorf("no plan returned")
	}
	if ref := s.ref; ref != nil && !full && !s.fresh {
		if len(plan.Program.Instrs) != ref.instrs || plan.Cost != ref.cost {
			return fmt.Errorf("plan differs from the first round's: %d instructions cost %v, want %d cost %v", len(plan.Program.Instrs), plan.Cost, ref.instrs, ref.cost)
		}
		return nil
	}
	if err := plan.Program.Validate(); err != nil {
		return err
	}
	var bin bytes.Buffer
	if err := plan.WriteProgramBinary(&bin); err != nil {
		return err
	}
	e.planBytes = append(e.planBytes, float64(bin.Len()))
	back, err := hap.ReadProgramBinary(&bin, plan.Program.Graph)
	if err != nil {
		return err
	}
	text := plan.Program.String()
	if back.Program.String() != text {
		return fmt.Errorf("binary round-trip changed the program")
	}
	if s.ref == nil {
		iter := e.simulate(s.in.cluster, plan.Program, plan.Ratios)
		if math.IsNaN(iter) || math.IsInf(iter, 0) || iter <= 0 {
			return fmt.Errorf("simulated iteration time %v", iter)
		}
		s.ref = &reference{program: text, instrs: len(plan.Program.Instrs), cost: plan.Cost, iter: iter}
		return nil
	}
	if s.fresh {
		if ref := s.ref; math.Abs(plan.Cost-ref.cost) > 0.02*ref.cost {
			return fmt.Errorf("variant's plan has modeled cost %v, the first variant's %v", plan.Cost, ref.cost)
		}
		return nil
	}
	if text != s.ref.program {
		return fmt.Errorf("plan differs from the first round's program")
	}
	return nil
}

// section is the measurement of one run of whole rounds.
type section struct {
	calls     int
	blockRate []float64 // calls per second of call time, per block of rounds
	roundMS   []float64 // call time per round
	mallocs   uint64
	bytes     uint64
	gcCycles  uint32
}

// timed runs whole rounds. Per round the calls are made back to back with
// only their own timers running, a speed probe after every probe interval of
// call time; the checks follow after the round, outside every timer and
// outside the allocation counters. rec, when non-nil, wraps each call in a
// root span.
func (e *env) timed(rounds int, rec *recorder) *section {
	sec := &section{}
	perBlock := (rounds + maxBlocks - 1) / maxBlocks
	type outcome struct {
		plan *hap.Plan
		d    time.Duration
		err  error
	}
	out := make([]outcome, len(e.round))
	// The allocation counters cover the calls only: the bracket closes
	// around every probe and around the checks.
	var before, after runtime.MemStats
	closeBracket := func() {
		runtime.ReadMemStats(&after)
		sec.mallocs += after.Mallocs - before.Mallocs
		sec.bytes += after.TotalAlloc - before.TotalAlloc
		sec.gcCycles += after.NumGC - before.NumGC
	}
	kind := e.w.probe()
	var blockCalls int
	var blockTime time.Duration
	for r := 0; r < rounds && e.fatal == nil; r++ {
		runtime.ReadMemStats(&before)
		var roundTime time.Duration
		for k, i := range e.round {
			s := e.series[i]
			root := rec.begin("call "+s.label, -1, r*len(e.round)+k)
			api := rec.begin(e.callName(), root, r*len(e.round)+k)
			plan, d, err := s.call()
			rec.end(api)
			rec.end(root)
			out[k] = outcome{plan, d, err}
			roundTime += d
			if e.sinceProbe += d; e.sinceProbe >= kind.interval() {
				closeBracket()
				e.probeMS = append(e.probeMS, ms(kind.run()))
				e.sinceProbe = 0
				runtime.ReadMemStats(&before)
			}
		}
		closeBracket()
		sec.calls += len(e.round)
		sec.roundMS = append(sec.roundMS, ms(roundTime))
		blockCalls += len(e.round)
		blockTime += roundTime
		if (r+1)%perBlock == 0 || r == rounds-1 {
			sec.blockRate = append(sec.blockRate, float64(blockCalls)/blockTime.Seconds())
			blockCalls, blockTime = 0, 0
		}

		full := e.srv == nil || r%fullCheckEvery == 0
		for k, i := range e.round {
			s, o := e.series[i], out[k]
			e.count(s)
			e.attempted++
			err := o.err
			if err == nil {
				err = e.check(s, o.plan, o.d, full)
			}
			if err == nil {
				err = s.rejected
			}
			if err != nil {
				e.failed++
				if e.failed <= 5 {
					fmt.Printf("# FAILED call %s round %d: %v\n", s.label, r, err)
				}
				continue
			}
			s.ms = append(s.ms, ms(o.d))
		}
	}
	if len(e.probeMS) == 0 {
		// A section shorter than one probe interval (-smoke).
		e.probeMS = append(e.probeMS, ms(kind.run()))
	}
	return sec
}

func (e *env) callName() string {
	if e.srv != nil {
		return "client.Synthesize"
	}
	return "hap.Planner.Plan"
}

// finish runs the checks that need the whole section: every plan's simulated
// iteration against the best data-parallel baseline of its graph, and the
// daemon's own counters against the hits and misses the call pattern implies.
func (e *env) finish() {
	for _, s := range e.series {
		if s.ref == nil || len(s.ms) == 0 {
			continue
		}
		key := s.in.name
		if s.fresh {
			key = s.label
		}
		dp, err := e.dpBaseline(key, s.build, s.in.cluster)
		if err == nil && s.ref.iter > dpSlack*dp {
			err = fmt.Errorf("simulated iteration %.5fs is worse than %.2f× the best DP baseline's %.5fs", s.ref.iter, dpSlack, dp)
		}
		if err != nil {
			fmt.Printf("# FAILED series %s: %v\n", s.label, err)
			e.failed += len(s.ms)
			s.ms = nil
		}
		s.dpIter = dp
	}
	if e.srv != nil {
		st := e.srv.Stats()
		if st.CacheHits != e.wantHits || st.CacheMisses != e.wantMisses || st.Errors != 0 {
			e.fatal = fmt.Errorf("daemon answered %d hits, %d misses, %d errors; the call pattern implies %d hits, %d misses", st.CacheHits, st.CacheMisses, st.Errors, e.wantHits, e.wantMisses)
		}
	}
}

// dpBaseline is the simulated iteration time of the better of DP-EV and
// DP-CP on the graph (one search on a homogeneous cluster, where the two
// coincide), cached under key. A baseline the memory model says would not
// fit still counts: its time is then optimistic, which only makes the check
// stricter.
func (e *env) dpBaseline(key string, build func() *graph.Graph, c *cluster.Cluster) (float64, error) {
	if t, ok := e.dp[key]; ok {
		return t, nil
	}
	g := build()
	plans := []func(*graph.Graph, *cluster.Cluster) (*baselines.Plan, error){baselines.DPCP}
	if !c.Homogeneous() {
		plans = append(plans, baselines.DPEV)
	}
	best := math.Inf(1)
	for _, mk := range plans {
		p, err := mk(g, c)
		if err != nil {
			return 0, err
		}
		if t := e.simulate(c, p.Program, p.Ratios); t < best {
			best = t
		}
	}
	e.dp[key] = best
	return best, nil
}

// rounds is the fixed work of a timed section of the given length.
func (w *workload) rounds(seconds float64) int {
	n := int(math.Round(seconds * w.roundsPerSecond))
	if n < 2 {
		n = 2
	}
	return n
}

// over collects f over the series that have timed calls.
func (e *env) over(f func(*series) float64) []float64 {
	var xs []float64
	for _, s := range e.series {
		if len(s.ms) > 0 {
			xs = append(xs, f(s))
		}
	}
	return xs
}

// callMedian is the geometric mean over the series of each series' median
// call time, milliseconds as measured.
func (e *env) callMedian() float64 {
	return geomean(e.over(func(s *series) float64 { return quantile(s.ms, 0.5) }))
}

// printSeries lists every series' own numbers; the metrics aggregate them.
func (e *env) printSeries() {
	for _, s := range e.series {
		if len(s.ms) > 0 {
			fmt.Printf("# series %-24s calls=%-5d best=%.3fms p50=%.3fms p90=%.3fms sim_iter=%.5fs dp_iter=%.5fs\n",
				s.label, len(s.ms), minOf(s.ms), quantile(s.ms, 0.5), quantile(s.ms, 0.9), s.ref.iter, s.dpIter)
		}
	}
}

// runWorkload is one run of the benchmark: the untraced run reports the
// end-to-end metrics, the traced run the per-layer ones.
func runWorkload(w *workload, cfg config) (*result, error) {
	var e *env
	var setupS []float64
	n := cfg.reps(setups)
	if cfg.trace {
		n = 1
	}
	for i := 0; i < n; i++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
		}
		t := time.Now()
		var err error
		if e, err = setup(w, cfg); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	defer e.close()

	res := &result{Metrics: map[string]metric{}}
	rounds := cfg.reps(w.rounds(cfg.seconds))
	if !cfg.trace {
		sec := e.timed(rounds, nil)
		e.finish()
		e.printSeries()
		// Times are reported at reference speed (see probe.go).
		probe, nominal := quantile(e.probeMS, 0.5), w.probe().nominalMS()
		speed := nominal / probe
		setupMed, callMS, rate := quantile(setupS, 0.5), e.callMedian(), quantile(sec.blockRate, 0.5)
		fmt.Printf("# speed probe: %d probes, median %.3f ms, nominal %g ms: times below are measured × %.4f\n", len(e.probeMS), probe, nominal, speed)
		fmt.Printf("# as measured: setup_s=%.4f call_ms=%.4f calls_per_s=%.4f\n", setupMed, callMS, rate)
		calls := float64(sec.calls)
		res.put("setup_s", setupMed*speed, "s")
		res.put("call_ms", callMS*speed, "ms")
		res.put("calls_per_s", rate/speed, "1/s")
		res.put("allocs_per_call", float64(sec.mallocs)/calls, "count")
		res.put("alloc_kb_per_call", float64(sec.bytes)/calls/1024, "KiB")
		res.put("iter_time_s", geomean(e.over(func(s *series) float64 { return s.ref.iter })), "s")
		res.put("plan_kb", mean(e.planBytes)/1024, "KiB")
		res.put("ok_share", float64(e.attempted-e.failed)/float64(e.attempted), "ratio")
	} else if err := e.traced(rounds, res); err != nil {
		return nil, err
	}
	if e.fatal != nil {
		return nil, e.fatal
	}
	res.Attempted, res.Failed = e.attempted, e.failed
	res.Correct = e.failed == 0
	return res, nil
}
