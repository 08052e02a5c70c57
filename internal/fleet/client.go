// The intra-fleet HTTP client: request forwarding (proxy-on-miss), entry
// replication pushes, and warm-up entry streaming. All calls speak the
// daemon's own wire surface — a fleet node is just another HTTP client of
// its peers, so there is no second RPC stack to operate or secure
// separately.

package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"hap/internal/fingerprint"
	"hap/internal/obs"
	"hap/internal/planwire"
)

// Wire headers of the fleet layer, spelled canonically
// (http.CanonicalHeaderKey) so Header.Get and Set find them without
// rewriting the key.
const (
	// ForwardHeader marks an intra-fleet forwarded request; its value is the
	// forwarding node's advertise URL. A node receiving it serves locally —
	// never re-forwards — so divergent ring views during a membership reload
	// cannot create proxy loops.
	ForwardHeader = "X-Hap-Fleet-Forward"
	// NodeHeader names the node that actually answered a proxied request,
	// set on the response for observability and the fleet tests.
	NodeHeader = "X-Hap-Fleet-Node"
)

// A forwarded plan request goes to the peer's plan endpoint and asks for the
// binary plan payload, the daemon's only plan answer.
const (
	forwardPath   = "/v1/synthesize"
	forwardAccept = "application/x-hap-plan"
)

// EntriesPath is the fleet entry-exchange endpoint: GET streams the node's
// cached entries as NDJSON (warm-up), POST accepts one replicated entry.
const EntriesPath = "/v1/fleet/entries"

// Entry is one cached plan crossing a process or disk boundary: a
// replication push, a warm-up stream line, and the daemon's plan file are
// all this record. Bin is the plan's binary payload (planwire.Append),
// base64 on the wire (encoding/json's []byte form) and restored byte-exact,
// so the content address keeps meaning the same bytes fleet-wide. The ETag
// does not travel: every node derives it from the plan bytes, so the tag
// means the same bytes fleet-wide.
type Entry struct {
	Key string `json:"key"`
	Bin []byte `json:"bin"`
}

// DecodeEntry parses one entry and refuses it unless it names a key no
// longer than a plan key (fingerprint.MaxPlanKey) and its payload is framed
// as a binary plan (planwire.Framed): a payload no client could decode must
// not be stored and then served as a hit, and the store's byte cap counts
// payloads, not keys. Every intake — disk restore, a replication push, the
// warm-up stream — decodes here. Unknown fields are ignored, so records that
// also carried the plan's JSON form still decode.
func DecodeEntry(data []byte) (Entry, error) {
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return Entry{}, fmt.Errorf("fleet: entry: %w", err)
	}
	if e.Key == "" || !planwire.Framed(e.Bin) {
		return Entry{}, fmt.Errorf("fleet: entry: a key and a framed plan payload are required")
	}
	if len(e.Key) > fingerprint.MaxPlanKey {
		return Entry{}, fmt.Errorf("fleet: entry: a %d-byte key, over the %d bytes a plan key takes", len(e.Key), fingerprint.MaxPlanKey)
	}
	return e, nil
}

// Client is the intra-fleet HTTP client. Safe for concurrent use.
type Client struct {
	http *http.Client
	// stream has no overall timeout: a warm-up transfer of a large cache is
	// bounded by the caller's ctx, not a fixed per-call deadline.
	stream *http.Client
}

// callTimeout bounds one forwarded or replicated call. It is sized for a
// proxied cold synthesis, not just a cache hit.
const callTimeout = 30 * time.Second

// NewClient returns a fleet client.
func NewClient() *Client {
	return &Client{http: &http.Client{Timeout: callTimeout}, stream: &http.Client{}}
}

// Forward relays a plan request to peer's plan endpoint, asking for the
// binary plan payload and marked with the forwarding node's URL so the peer
// serves it locally. A non-empty ifNoneMatch travels with the forward so a
// warm client's conditional fetch stays conditional across the proxy hop —
// the owner answers 304 and the proxy relays it without ever moving the plan
// body. A non-empty trace is sent as the trace-propagation
// header (obs.TraceHeader) so the peer's spans land in the forwarder's trace.
// The caller relays the response (status, plan headers, body) to its own
// client and must close the body.
func (c *Client) Forward(ctx context.Context, peer string, body []byte, from, ifNoneMatch, trace string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, NormalizeURL(peer)+forwardPath, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardHeader, from)
	req.Header.Set("Accept", forwardAccept)
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	return c.http.Do(req)
}

// Replicate pushes one filled entry to peer.
func (c *Client) Replicate(ctx context.Context, peer string, e Entry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, NormalizeURL(peer)+EntriesPath, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("fleet: replicate to %s: HTTP %d", peer, resp.StatusCode)
	}
	return nil
}

// StreamEntries GETs peer's cached entries and feeds each to fn until the
// stream ends or fn returns false. Returns how many entries fn accepted.
// A stream cut mid-transfer returns the count so far plus the error: warm-up
// is best-effort, and every entry that made it across is an entry the
// joining node will not re-synthesize. The streaming client must not time
// out a large cache mid-transfer, so this call honors only ctx, not the
// client's fixed timeout.
func (c *Client) StreamEntries(ctx context.Context, peer string, fn func(Entry) bool) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, NormalizeURL(peer)+EntriesPath, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.stream.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("fleet: entries from %s: HTTP %d", peer, resp.StatusCode)
	}
	n := 0
	sc := bufio.NewScanner(resp.Body)
	// Model-scale plans are a few KiB of binary, base64'd; the cap leaves
	// room for far larger ones.
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		e, err := DecodeEntry(line)
		if err != nil {
			return n, fmt.Errorf("fleet: entries from %s: %w", peer, err)
		}
		if !fn(e) {
			return n, nil
		}
		n++
	}
	return n, sc.Err()
}
