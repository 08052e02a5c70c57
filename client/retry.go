// Retry with jittered exponential backoff. Every request this client sends
// is idempotent by construction — /v1/synthesize is a pure, memoized
// function of its body (the server content-addresses the request and
// single-flights duplicates), and /healthz is a read — so retrying a failed
// attempt can waste work but never corrupt state. Retries fire only on
// errors that plausibly mean "try again": transport failures (connection
// refused, reset, timeout) and the gateway statuses a proxy or a rolling
// restart produces (429, 502, 503, 504). Application errors — bad_request,
// synthesis_failed — fail immediately: resending the same body buys
// nothing. A cancelled context is honored everywhere, including mid-backoff.

package client

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// DefaultRetryBase is the first backoff delay when WithRetry is given a
// non-positive base.
const DefaultRetryBase = 100 * time.Millisecond

// maxBackoff caps one backoff sleep regardless of attempt count.
const maxBackoff = 30 * time.Second

// WithRetry enables automatic retries: up to attempts total tries per
// request, sleeping a jittered exponential backoff (full jitter over
// base·2^attempt, capped at 30s) between them. Only transient failures are
// retried — transport errors and HTTP 429/502/503/504; every request the
// client makes is idempotent (synthesis is content-addressed and memoized
// server-side), so retries are safe. attempts <= 1 disables retries.
func WithRetry(attempts int, base time.Duration) Option {
	return func(c *Client) {
		if base <= 0 {
			base = DefaultRetryBase
		}
		c.retry = retryPolicy{attempts: attempts, base: base}
	}
}

// retryPolicy holds the retry knobs; the zero value never retries.
type retryPolicy struct {
	attempts int
	base     time.Duration
}

// shouldRetry reports whether another attempt is allowed after the given
// zero-based attempt index.
func (p retryPolicy) shouldRetry(attempt int) bool {
	return attempt+1 < p.attempts
}

// backoff sleeps the jittered delay for the given attempt, returning early
// with the context's error if ctx dies first. floor is the server's
// Retry-After demand (zero when absent): the jittered delay never sleeps
// less than it, so a daemon shedding load under admission control is obeyed
// rather than hammered on the jitter's low rolls.
func (p retryPolicy) backoff(ctx context.Context, attempt int, floor time.Duration) error {
	d := p.base << attempt
	if d <= 0 || d > maxBackoff {
		d = maxBackoff
	}
	// Full jitter: a herd of clients retrying a restarted daemon spreads
	// over [0, d) instead of stampeding in sync.
	d = time.Duration(rand.Int63n(int64(d) + 1))
	if floor > maxBackoff {
		floor = maxBackoff
	}
	if d < floor {
		d = floor
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// retryableStatus reports whether an HTTP status is worth retrying:
// overload and gateway statuses, not application errors.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// retryableTransportError reports whether a transport-level failure is
// worth retrying. Context cancellation and deadline expiry are the caller's
// decision taking effect, never retried.
func retryableTransportError(err error) bool {
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// parseRetryAfter reads a Retry-After header in either RFC 9110 form —
// delay seconds or an HTTP-date — as a backoff floor. Absent, malformed, or
// already-past values mean no floor; a delay of seconds is capped at
// maxBackoff.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	// A delay past the int range parses as the range's bound (ErrRange). The
	// seconds are clamped before they become a Duration: a large delay would
	// otherwise overflow it into a negative floor.
	if secs, err := strconv.Atoi(h); err == nil || errors.Is(err, strconv.ErrRange) {
		return time.Duration(min(max(secs, 0), int(maxBackoff/time.Second))) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// do sends the request built by build, retrying per the policy. build is
// called once per attempt so each try gets a fresh body reader.
func (c *Client) do(ctx context.Context, build func() (*http.Request, error)) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		req, err := build()
		if err != nil {
			return nil, err
		}
		resp, err := c.http.Do(req)
		if err != nil {
			if retryableTransportError(err) && c.retry.shouldRetry(attempt) {
				if berr := c.retry.backoff(ctx, attempt, 0); berr == nil {
					continue
				}
			}
			return nil, err
		}
		if retryableStatus(resp.StatusCode) && c.retry.shouldRetry(attempt) {
			// A 429/503 may carry the server's Retry-After demand — the
			// admission gate's shed hint, possibly relayed through a fleet
			// proxy. It floors the backoff for this attempt.
			floor := parseRetryAfter(resp.Header.Get("Retry-After"))
			resp.Body.Close()
			if berr := c.retry.backoff(ctx, attempt, floor); berr == nil {
				continue
			}
			// ctx died in backoff; the last response is gone, report the ctx.
			return nil, ctx.Err()
		}
		return resp, nil
	}
}
