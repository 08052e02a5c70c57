// The load drivers.
//
// Closed loop: a fixed worker pool where each worker issues its next
// request when the previous one completes — concurrency is the control
// variable, throughput the measurement. Good for steady-state latency under
// a known parallelism.
//
// Open loop: requests arrive by a Poisson process at a target rate whether
// or not earlier ones finished — rate is the control variable, latency the
// measurement. Crucially, each request's latency is measured from its
// INTENDED send time (the arrival the Poisson process scheduled), not from
// when a connection slot freed up. Measuring from the actual send is the
// coordinated-omission trap: a stalled server delays the sends themselves,
// so the stall never shows up in the numbers. Measuring from intended time,
// server-induced queueing lands in the recorded latency where it belongs —
// driver_test.go pins this with a deliberately stalled server.

package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hap/internal/fleet"
	"hap/internal/serve"
)

// Options configures one load run.
type Options struct {
	// Target is the daemon base URL (e.g. "http://127.0.0.1:8080").
	Target string
	// Corpus is the request universe (required).
	Corpus *Corpus
	// Mix weighs the request classes (zero = DefaultMix).
	Mix Mix
	// ZipfS is the popularity skew (<=1 = default 1.2).
	ZipfS float64
	// Seed makes the run deterministic.
	Seed int64

	// OpenLoop selects the Poisson arrival driver; false = closed loop.
	OpenLoop bool
	// Concurrency is the closed-loop worker count (0 = 8).
	Concurrency int
	// Rate is the open-loop target arrival rate per second (0 = 100).
	Rate float64
	// MaxOutstanding caps concurrently outstanding open-loop requests
	// (0 = 1024). When the cap is hit, arrivals queue — and their wait is
	// part of their recorded latency, by design.
	MaxOutstanding int

	// Duration bounds the run in wall time (0 = 5s when Requests is 0).
	Duration time.Duration
	// Requests bounds the run by count instead, when positive.
	Requests int

	// Client overrides the HTTP client (nil = 30s-timeout default).
	Client *http.Client
}

func (o *Options) defaults() error {
	if o.Corpus == nil {
		return fmt.Errorf("load: Options.Corpus is required")
	}
	if o.Target == "" {
		return fmt.Errorf("load: Options.Target is required")
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 8
	}
	if o.Rate <= 0 {
		o.Rate = 100
	}
	if o.MaxOutstanding <= 0 {
		o.MaxOutstanding = 1024
	}
	if o.Duration <= 0 && o.Requests <= 0 {
		o.Duration = 5 * time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return nil
}

// Run executes one load run and returns its report. ctx cancellation stops
// the run early; what was measured up to that point is still reported.
func Run(ctx context.Context, o Options) (*Report, error) {
	if err := o.defaults(); err != nil {
		return nil, err
	}
	ex := &executor{target: o.Target, hc: o.Client, corpus: o.Corpus}
	rec := newRecorder()
	start := time.Now()
	if o.OpenLoop {
		runOpen(ctx, o, ex, rec, start)
	} else {
		runClosed(ctx, o, ex, rec, start)
	}
	elapsed := time.Since(start)
	mode := "closed"
	rate := 0.0
	concurrency := o.Concurrency
	if o.OpenLoop {
		mode, rate, concurrency = "open", o.Rate, 0
	}
	return rec.report(mode, o.Target, o.Seed, rate, concurrency, elapsed), nil
}

// Warmup serially posts every corpus single body once, so a subsequent run
// measures a warm cache. Returns the number of plans filled (or confirmed
// cached). Synthesis failures abort — a cold daemon that cannot plan the
// corpus would poison every later measurement.
func Warmup(ctx context.Context, target string, hc *http.Client, c *Corpus) (int, error) {
	if hc == nil {
		hc = &http.Client{Timeout: 5 * time.Minute}
	}
	for i := 0; i < c.Items(); i++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/v1/synthesize", bytes.NewReader(c.SingleBody(i)))
		if err != nil {
			return i, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(req)
		if err != nil {
			return i, fmt.Errorf("load: warmup item %d: %w", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			return i, fmt.Errorf("load: warmup item %d: HTTP %d", i, resp.StatusCode)
		}
	}
	return c.Items(), nil
}

// runClosed drives the fixed-concurrency loop.
func runClosed(ctx context.Context, o Options, ex *executor, rec *recorder, start time.Time) {
	deadline := start.Add(o.Duration)
	var issued atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < o.Concurrency; w++ {
		wg.Add(1)
		// Distinct per-worker seeds keep the sequence deterministic for a
		// fixed (seed, concurrency) without every worker replaying the same
		// requests in lockstep.
		gen := NewGenerator(o.Corpus, o.Mix, o.ZipfS, o.Seed+int64(w)*7919)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				if o.Requests > 0 {
					if issued.Add(1) > int64(o.Requests) {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				spec := gen.Next()
				t0 := time.Now()
				res := ex.do(ctx, spec)
				res.Latency = time.Since(t0)
				rec.record(res)
			}
		}()
	}
	wg.Wait()
}

// runOpen drives the Poisson arrival loop. One dispatcher owns the
// generator and the arrival clock; firing goroutines own nothing but their
// request.
func runOpen(ctx context.Context, o Options, ex *executor, rec *recorder, start time.Time) {
	gen := NewGenerator(o.Corpus, o.Mix, o.ZipfS, o.Seed)
	// The arrival process gets its own rng so the request sequence is
	// identical between closed and open runs of the same seed.
	arrivals := rand.New(rand.NewSource(o.Seed ^ 0x5deece66d))
	deadline := start.Add(o.Duration)
	sem := make(chan struct{}, o.MaxOutstanding)
	var wg sync.WaitGroup
	intended := start
	for n := 0; ; n++ {
		if ctx.Err() != nil {
			break
		}
		if o.Requests > 0 && n >= o.Requests {
			break
		}
		// The next intended send time advances by an exponential interarrival
		// regardless of how far behind actual sends are — the schedule is the
		// Poisson process, not the achieved pace.
		intended = intended.Add(time.Duration(arrivals.ExpFloat64() / o.Rate * float64(time.Second)))
		if o.Requests <= 0 && intended.After(deadline) {
			break
		}
		spec := gen.Next()
		if d := time.Until(intended); d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-ctx.Done():
				timer.Stop()
				return
			case <-timer.C:
			}
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			wg.Wait()
			return
		}
		wg.Add(1)
		go func(spec Spec, intended time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			res := ex.do(ctx, spec)
			// Latency from the INTENDED send: any time this request spent
			// queued behind the outstanding cap — i.e. behind a slow server —
			// is charged to the request, not hidden (coordinated omission).
			res.Latency = time.Since(intended)
			rec.record(res)
		}(spec, intended)
	}
	wg.Wait()
}

// executor turns Specs into HTTP requests against the daemon and classifies
// the responses. Safe for concurrent use.
type executor struct {
	target string
	hc     *http.Client
	corpus *Corpus
	etags  sync.Map // item int → ETag string, for the Conditional class
}

func (e *executor) do(ctx context.Context, spec Spec) Result {
	res := Result{Class: spec.Class}
	cctx := ctx
	if spec.Class == Cancel {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(ctx, spec.CancelAfter)
		defer cancel()
	}
	body := bytes.NewReader(e.corpus.SingleBody(spec.Item))
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, e.target+"/v1/synthesize", body)
	if err != nil {
		res.Outcome, res.Code = OutcomeError, "request"
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	if spec.Class == Conditional {
		if tag, ok := e.etags.Load(spec.Item); ok {
			req.Header.Set("If-None-Match", tag.(string))
		}
	}
	resp, err := e.hc.Do(req)
	if err != nil {
		if cctx.Err() != nil && ctx.Err() == nil {
			// Our own mid-flight cancellation doing its job.
			res.Outcome = OutcomeCanceled
		} else if ctx.Err() != nil {
			res.Outcome = OutcomeCanceled
		} else {
			res.Outcome, res.Code = OutcomeError, "transport"
		}
		return res
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	res.Proxied = resp.Header.Get(fleet.NodeHeader) != ""
	switch {
	case resp.StatusCode == http.StatusNotModified:
		// Conditional revalidation answered from the client's cached copy:
		// a warm plan served for a handful of header bytes.
		res.Outcome = OutcomeWarm
	case resp.StatusCode == http.StatusTooManyRequests:
		res.Outcome = OutcomeShed
	case resp.StatusCode/100 == 2:
		if resp.Header.Get(serve.CacheHeader) == "hit" {
			res.Outcome = OutcomeWarm
		} else {
			res.Outcome = OutcomeMiss
		}
		if tag := resp.Header.Get("ETag"); tag != "" {
			e.etags.Store(spec.Item, tag)
		}
	case resp.StatusCode == 499:
		res.Outcome = OutcomeCanceled
	default:
		res.Outcome = OutcomeError
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		var env struct {
			Code string `json:"code"`
		}
		if json.Unmarshal(raw, &env) == nil && env.Code != "" {
			res.Code = env.Code
		} else {
			res.Code = fmt.Sprintf("http_%d", resp.StatusCode)
		}
	}
	return res
}
