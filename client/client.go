// Package client is the Go client for the hap-serve plan daemon's wire
// protocol v2. It speaks the versioned /v1 endpoints, decodes the binary plan
// payload every plan answer carries and the structured error envelopes, and
// honors the request context end-to-end — cancelling ctx abandons the HTTP
// request and, server-side, aborts the in-flight synthesis once no other
// client is waiting on it.
//
//	cl := client.New("http://planner:8080")
//	plan, err := cl.Synthesize(ctx, g, c, client.Options{})
//
// A caller with several clusters for one graph calls Synthesize once per
// cluster: each call is key-first on its own, so a plan the daemon holds
// costs no upload.
//
// The returned plans are ready for hap.Verify / hap.Simulate, exactly as if
// hap.NewPlanner had produced them locally. Each is bound to the caller's
// graph, or to a shallow copy of it when the plan's segment assignment is not
// the one the graph carries: the caller's graph value is never written to,
// so sending it again is the same request.
//
// Synthesize is key-first: it derives the plan's cache key locally (two
// fingerprints, no encoding) and posts only {"key": ...}. A daemon holding
// the plan answers it outright; one that does not says need_body and the
// client repeats the request with the encoded graph and cluster. A daemon
// from before the key form rejects it once, after which the client sends
// full bodies for the rest of its lifetime.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hap"
	"hap/internal/fingerprint"
	"hap/internal/graph"
	"hap/internal/obs"
	"hap/internal/planwire"
)

// accept is the Accept header of plan requests: the binary plan payload,
// mirroring serve.BinaryPlanContentType (the serve package is internal; the
// media type is the wire contract).
const accept = "application/x-hap-plan"

// Options mirrors the wire "options" object of the synthesize endpoints.
// Segments is its one field: the planner picks exact or beam search and
// bounds the Q↔B alternation itself.
type Options struct {
	// Segments requests per-segment sharding ratios.
	Segments int `json:"segments,omitempty"`
}

// APIError is a structured error envelope returned by a v1 endpoint.
type APIError struct {
	Status  int    // HTTP status
	Code    string // machine-readable error code
	Message string // human-readable detail
	// TraceID is the server-side request trace identifier (the X-HAP-Trace
	// response header), when the daemon runs with tracing on. Hand it to
	// GET /v1/debug/traces/<id> on the daemon to see the failed request's
	// full span breakdown. Empty when the server traced nothing.
	TraceID string
}

func (e *APIError) Error() string {
	if e.TraceID != "" {
		return fmt.Sprintf("hap server: %s (%s, HTTP %d, trace %s)", e.Message, e.Code, e.Status, e.TraceID)
	}
	return fmt.Sprintf("hap server: %s (%s, HTTP %d)", e.Message, e.Code, e.Status)
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the http.Client used for requests.
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.http = h } }

// WithTracing stamps every request with a fresh client-generated trace ID
// (the X-HAP-Trace header). A tracing-enabled daemon adopts the ID for its
// request trace, so a slow or failed call can be looked up afterwards at
// GET /v1/debug/traces/<id> — the ID also comes back in APIError.TraceID.
// Retries of one logical request share one ID: the server's ring then shows
// every attempt under the identifier the caller logged.
func WithTracing() Option { return func(c *Client) { c.tracing = true } }

// WithConditionalFetch makes Synthesize remember each response's entity tag
// and body, and revalidate repeat requests with If-None-Match: the server
// answers an unchanged plan with 304 Not Modified and no body, and the
// client re-decodes its cached bytes. A trainer polling the daemon for a
// drift-triggered replan pays header bytes per poll instead of a full plan
// transfer — until the plan actually changes.
func WithConditionalFetch() Option {
	return func(c *Client) { c.cond = &condCache{entries: map[string]condEntry{}} }
}

// Client talks to one hap-serve daemon. Safe for concurrent use.
type Client struct {
	base    string
	http    *http.Client
	tracing bool
	retry   retryPolicy
	cond    *condCache // nil = conditional fetch disabled
	// fullBodies latches once the daemon turns out not to know the key-only
	// request form: from then on every request carries graph and cluster.
	fullBodies atomic.Bool
}

// condEntry is one remembered plan response: the tag the server issued and
// the exact body bytes it tagged. Bodies are cached as bytes, not decoded
// plans, because a decoded plan is bound to the caller's graph value —
// re-decoding per call keeps the cache valid across distinct (but
// fingerprint-equal) graph instances.
type condEntry struct {
	etag string
	body []byte
}

// condCache maps a request's identity (the plan's cache key) to its last
// successful response. Safe for concurrent use.
type condCache struct {
	mu      sync.Mutex
	entries map[string]condEntry
}

func (cc *condCache) get(key string) (condEntry, bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	e, ok := cc.entries[key]
	return e, ok
}

func (cc *condCache) put(key string, e condEntry) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.entries[key] = e
}

// New returns a client for the daemon at base (e.g. "http://host:8080").
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), http: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// newTraceID returns a fresh trace ID under WithTracing, "" otherwise. One
// logical call draws one ID, however many requests it takes.
func (c *Client) newTraceID() string {
	if c.tracing {
		return obs.NewTraceID()
	}
	return ""
}

// postData sends already-marshalled bytes and returns the raw response,
// retrying transient failures when WithRetry is configured (every attempt
// re-sends the same bytes). A non-empty ifNoneMatch makes the request
// conditional; a 304 Not Modified is then a success the caller resolves from
// its cache, not an error. Other non-2xx responses are decoded into *APIError
// (with a plain-text fallback for proxies).
func (c *Client) postData(ctx context.Context, path string, data []byte, ifNoneMatch, traceID string) (*http.Response, error) {
	resp, err := c.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("client: %w", err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", accept)
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		if traceID != "" {
			req.Header.Set(obs.TraceHeader, traceID)
		}
		return req, nil
	})
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if resp.StatusCode == http.StatusNotModified && ifNoneMatch != "" {
		return resp, nil
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		var env struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		}
		if err := json.Unmarshal(raw, &env); err != nil || env.Code == "" {
			env.Code = "error"
			env.Message = strings.TrimSpace(string(raw))
		}
		// The trace ID comes from the response when the server traced the
		// request (set even on errors), falling back to the ID we sent.
		tid := resp.Header.Get(obs.TraceHeader)
		if tid == "" {
			tid = traceID
		}
		return nil, &APIError{Status: resp.StatusCode, Code: env.Code, Message: env.Message, TraceID: tid}
	}
	return resp, nil
}

// needBody mirrors serve.NeedBody: the cacheHeader value of the daemon's
// answer to a key-only request it holds no plan for.
const needBody = "need_body"

// cacheHeader mirrors serve.CacheHeader, the header naming a plan answer's
// cache outcome.
const cacheHeader = "X-Hap-Cache"

// Synthesize plans g on cl via the server, which answers with the binary
// plan payload; an answer that does not decode as one is an error.
//
// The request is key-first (see the package comment): a pure function of g,
// cl and opt, none of which the call modifies. The returned plan is bound to
// g, or to a shallow copy of g carrying the plan's segment assignment.
func (c *Client) Synthesize(ctx context.Context, g *hap.Graph, cl *hap.Cluster, opt Options) (*hap.Plan, error) {
	const path = "/v1/synthesize"
	fp := graph.Fingerprint(g)
	key := fingerprint.PlanKey(fp, cl.Fingerprint(), fingerprint.Options(opt))
	// With conditional fetch on, revalidate the remembered response instead
	// of re-downloading it: send its tag, and resolve a 304 from the cache.
	var cached condEntry
	if c.cond != nil {
		cached, _ = c.cond.get(key)
	}
	traceID := c.newTraceID()

	var resp *http.Response
	if !c.fullBodies.Load() {
		// The key's alphabet is hex digits, ':' and the options signature's
		// letters: nothing JSON would escape.
		r, err := c.postData(ctx, path, []byte(`{"key":"`+key+`"}`), cached.etag, traceID)
		var apiErr *APIError
		switch {
		case errors.As(err, &apiErr) && apiErr.Status == http.StatusBadRequest:
			// A daemon from before the key form: "graph and cluster are
			// required". It will say so every time, so stop asking.
			c.fullBodies.Store(true)
		case err != nil:
			return nil, err
		case r.Header.Get(cacheHeader) == needBody:
			io.Copy(io.Discard, r.Body)
			r.Body.Close()
		default:
			resp = r
		}
	}
	if resp == nil {
		data, err := requestBody(g, cl, opt)
		if err != nil {
			return nil, err
		}
		if resp, err = c.postData(ctx, path, data, cached.etag, traceID); err != nil {
			return nil, err
		}
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		io.Copy(io.Discard, resp.Body)
		return decodePlan(cached.body, g, fp)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("client: reading plan: %w", err)
	}
	if etag := resp.Header.Get("ETag"); c.cond != nil && etag != "" {
		c.cond.put(key, condEntry{etag: etag, body: raw})
	}
	return decodePlan(raw, g, fp)
}

// requestBody renders the full-body request, {"graph":…,"cluster":…,
// "options":…}: the bytes json.Marshal writes for the three fields with the
// graph and cluster payloads compacted, so the daemon reads the same bytes
// whichever way they were built. The graph is appended without
// reflection (graph.AppendJSON); the cluster, a few hundred bytes, is
// compacted from its indented encoding.
func requestBody(g *hap.Graph, cl *hap.Cluster, opt Options) ([]byte, error) {
	b := append(make([]byte, 0, 96*g.NumNodes()+1024), `{"graph":`...)
	b, err := g.AppendJSON(b)
	if err != nil {
		return nil, fmt.Errorf("client: encoding graph: %w", err)
	}
	var cb bytes.Buffer
	if err := cl.Encode(&cb); err != nil {
		return nil, fmt.Errorf("client: encoding cluster: %w", err)
	}
	body := bytes.NewBuffer(append(b, `,"cluster":`...))
	if err := json.Compact(body, cb.Bytes()); err != nil {
		return nil, fmt.Errorf("client: encoding cluster: %w", err)
	}
	b = append(body.Bytes(), `,"options":{`...)
	if opt.Segments != 0 {
		b = strconv.AppendInt(append(b, `"segments":`...), int64(opt.Segments), 10)
	}
	return append(b, "}}"...), nil
}

// decodePlan decodes a binary plan body, binding it to g. fp is
// graph.Fingerprint(g), hashed once per call for the cache key: the
// plan→graph binding check reuses it while the plan's segment assignment is
// the one g carries, and hashes the copy it binds to otherwise (a segmented
// plan for an unsegmented request).
func decodePlan(body []byte, g *hap.Graph, fp string) (*hap.Plan, error) {
	prog, ratios, cost, err := planwire.ReadBinary(body, g, fp)
	if err != nil {
		return nil, fmt.Errorf("client: decoding binary plan: %w", err)
	}
	return &hap.Plan{Program: prog, Ratios: ratios, Cost: cost}, nil
}

// Healthz probes the daemon and returns its reported protocol version.
func (c *Client) Healthz(ctx context.Context) (string, error) {
	resp, err := c.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
		if err != nil {
			return nil, fmt.Errorf("client: %w", err)
		}
		return req, nil
	})
	if err != nil {
		return "", fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("client: healthz returned HTTP %d", resp.StatusCode)
	}
	var h struct {
		Status   string `json:"status"`
		Protocol string `json:"protocol"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return "", fmt.Errorf("client: decoding healthz: %w", err)
	}
	if h.Status != "ok" {
		return h.Protocol, fmt.Errorf("client: server reports status %q", h.Status)
	}
	return h.Protocol, nil
}
