package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// TestRetryRecoversFromTransientStatuses: two 503s then success — the client
// retries through the outage and the caller never sees it.
func TestRetryRecoversFromTransientStatuses(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "rolling restart", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ok","protocol":"v2"}`))
	}))
	defer srv.Close()

	c := New(srv.URL, WithRetry(3, time.Millisecond))
	proto, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatalf("Healthz after transient 503s: %v", err)
	}
	if proto != "v2" {
		t.Errorf("protocol = %q, want v2", proto)
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d attempts, want 3", calls.Load())
	}
}

// TestRetryExhaustsAttempts: a persistent 503 fails after exactly the
// configured number of attempts.
func TestRetryExhaustsAttempts(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c := New(srv.URL, WithRetry(3, time.Millisecond))
	if _, err := c.Healthz(context.Background()); err == nil {
		t.Fatal("persistent 503 did not surface an error")
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d attempts, want exactly 3", calls.Load())
	}
}

// TestNoRetryOnApplicationErrors: a 400-class answer is authoritative;
// resending the same bad request buys nothing.
func TestNoRetryOnApplicationErrors(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusUnprocessableEntity)
		w.Write([]byte(`{"code":"synthesis_failed","message":"no feasible plan"}`))
	}))
	defer srv.Close()

	c := New(srv.URL, WithRetry(5, time.Millisecond))
	_, err := c.postData(context.Background(), "/v1/synthesize", []byte("{}"), "", "")
	if err == nil {
		t.Fatal("422 did not surface an error")
	}
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Code != "synthesis_failed" {
		t.Errorf("error = %v, want the decoded APIError", err)
	}
	if calls.Load() != 1 {
		t.Errorf("server saw %d attempts for an application error, want 1", calls.Load())
	}
}

// TestRetryOnTransportError: a connection-refused target is retried, and the
// retry succeeds once the port is listening again (simulated by pointing the
// client at a server that starts closed and comes up between attempts).
func TestRetryOnTransportError(t *testing.T) {
	// A server that is down for the first attempt: bind, grab the URL, close.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok","protocol":"v2"}`))
	}))
	url := srv.URL
	srv.Close()

	c := New(url, WithRetry(3, time.Millisecond))
	if _, err := c.Healthz(context.Background()); err == nil {
		t.Fatal("dead server answered")
	}
	// The point: the transport error was retried (no panic, clean error),
	// and a cancelled context is never retried.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := c.Healthz(ctx); err == nil {
		t.Fatal("cancelled context answered")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled request took %v; cancellation must not back off", elapsed)
	}
}

// TestBackoffHonorsContext: cancelling mid-backoff returns promptly with the
// context's error instead of sleeping out the delay.
func TestBackoffHonorsContext(t *testing.T) {
	p := retryPolicy{attempts: 5, base: 10 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.backoff(ctx, 3, 0) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("backoff returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("backoff kept sleeping after cancellation")
	}
}

// TestBackoffIsCapped: the delay for a huge attempt number stays within the
// cap (full jitter draws from [0, cap], so one sleep bounds it).
func TestBackoffIsCapped(t *testing.T) {
	p := retryPolicy{attempts: 100, base: time.Second}
	start := time.Now()
	// attempt 62: base<<62 overflows; the policy must clamp, and jitter may
	// still draw a large value — so only check it does not hang or panic
	// with a short context.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	p.backoff(ctx, 62, 0)
	if time.Since(start) > 5*time.Second {
		t.Error("overflowed backoff slept unbounded")
	}
}

// TestParseRetryAfter covers both RFC 9110 forms and the garbage cases.
func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
		// approximate allows HTTP-date rounding slop.
		approximate bool
	}{
		{"", 0, false},
		{"5", 5 * time.Second, false},
		{"0", 0, false},
		{"-3", 0, false},
		{"soon", 0, false},
		{time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat), 10 * time.Second, true},
		{time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat), 0, false},
	}
	for _, tc := range cases {
		got := parseRetryAfter(tc.in)
		if tc.approximate {
			if got < 8*time.Second || got > 11*time.Second {
				t.Errorf("parseRetryAfter(%q) = %v, want ~%v", tc.in, got, tc.want)
			}
		} else if got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestParseRetryAfterClamps: a delay of seconds past maxBackoff is capped
// there, however large — never wrapped through time.Duration into a negative
// floor that backoff would ignore.
func TestParseRetryAfterClamps(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"30", maxBackoff},
		{"31", maxBackoff},
		{"9223372037", maxBackoff},           // × 1e9 ns wraps int64
		{"10000000000", maxBackoff},          // × 1e9 ns wraps int64
		{"99999999999999999999", maxBackoff}, // past int64 itself
		{"-99999999999999999999", 0},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.in); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// FuzzRetryAfter: whatever the header says, the floor is never negative, and
// a delay of n seconds floors the backoff at min(n s, maxBackoff) or more.
// The committed corpus holds two delays that once wrapped negative.
func FuzzRetryAfter(f *testing.F) {
	for _, s := range []string{"", "0", "1", "30", "-3", "soon", "Wed, 21 Oct 2015 07:28:00 GMT"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, h string) {
		got := parseRetryAfter(h)
		if got < 0 {
			t.Fatalf("parseRetryAfter(%q) = %v, negative", h, got)
		}
		n, err := strconv.ParseUint(h, 10, 64)
		if err != nil && !errors.Is(err, strconv.ErrRange) {
			return
		}
		want := maxBackoff
		if n < uint64(maxBackoff/time.Second) {
			want = time.Duration(n) * time.Second
		}
		if got < want {
			t.Fatalf("parseRetryAfter(%q) = %v, want at least %v", h, got, want)
		}
	})
}

// TestBackoffHonorsRetryAfterFloor: the jittered delay never undercuts the
// server's Retry-After. With a tiny base, jitter alone would return almost
// immediately — the floor must hold the sleep.
func TestBackoffHonorsRetryAfterFloor(t *testing.T) {
	p := retryPolicy{attempts: 3, base: time.Microsecond}
	start := time.Now()
	if err := p.backoff(context.Background(), 0, 150*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 140*time.Millisecond {
		t.Errorf("backoff slept %v, want >= the 150ms Retry-After floor", elapsed)
	}
}

// TestRetryAfterHeaderReachesBackoff: a 429 carrying Retry-After: 1 makes
// the retry wait at least a second even though the policy's base is a
// millisecond — the header value flows from the response into the sleep.
func TestRetryAfterHeaderReachesBackoff(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"code":"overloaded","message":"at capacity"}`))
			return
		}
		w.Write([]byte(`{"status":"ok","protocol":"v2"}`))
	}))
	defer srv.Close()

	c := New(srv.URL, WithRetry(3, time.Millisecond))
	start := time.Now()
	if _, err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("Healthz after shed: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Errorf("retry waited %v, want >= ~1s from Retry-After", elapsed)
	}
	if calls.Load() != 2 {
		t.Errorf("server saw %d attempts, want 2", calls.Load())
	}
}

// TestZeroPolicyNeverRetries: a client built without WithRetry keeps the old
// single-attempt behavior.
func TestZeroPolicyNeverRetries(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := New(srv.URL)
	if _, err := c.Healthz(context.Background()); err == nil {
		t.Fatal("503 did not surface an error")
	}
	if calls.Load() != 1 {
		t.Errorf("server saw %d attempts without WithRetry, want 1", calls.Load())
	}
}
