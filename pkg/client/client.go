// Package client is the Go SDK for the gridd HTTP API: the versioned
// /v1 run lifecycle (submit / status / SSE event streams / cancel /
// results), job submission, campaigns and stats — with bounded retries
// and typed errors. cmd/loadgen, cmd/gridctl and the service test
// suites all drive the daemon through this package.
//
// The zero-config client targets http://localhost:8042 and retries
// failed calls twice with exponential backoff, honouring Retry-After:
// idempotent calls on transport failures, 5xx and 429; POST
// submissions only on explicit 429 back-pressure (any other POST
// failure might mean the work was accepted — or accepted and then
// cancelled — and a blind retry would duplicate it). WithRetries(0)
// disables retrying for latency-sensitive callers like the load
// generator.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Error is the typed failure of one API call.
type Error struct {
	// Status is the HTTP status code (0 for transport failures).
	Status int
	// Message is the server's JSON error message (or the transport
	// error text).
	Message string
	// RetryAfter is the server's back-off hint on 429 responses.
	RetryAfter time.Duration
}

func (e *Error) Error() string {
	if e.Status == 0 {
		return fmt.Sprintf("client: %s", e.Message)
	}
	return fmt.Sprintf("client: status %d: %s", e.Status, e.Message)
}

// Sentinel errors for the authentication and quota rejections of a
// multi-tenant daemon. They match through errors.Is, so callers can
// branch without digging status codes out of *Error:
//
//	if errors.Is(err, client.ErrQuotaExceeded) { backoff() }
var (
	// ErrUnauthorized is a 401: the daemon requires an API key and the
	// request carried none (see WithAPIKey).
	ErrUnauthorized = errors.New("client: unauthorized (missing API key)")
	// ErrForbidden is a 403: the API key is not a configured tenant's,
	// or the key's tenant does not own the targeted run.
	ErrForbidden = errors.New("client: forbidden (unknown API key or not the run's tenant)")
	// ErrQuotaExceeded is a 429: the tenant's admission quota (or the
	// daemon's global backlog bound) rejected the submission; the
	// *Error carries the per-tenant Retry-After hint.
	ErrQuotaExceeded = errors.New("client: quota exceeded; retry later")
)

// Is maps the typed API error onto the exported sentinels, keyed by
// status code.
func (e *Error) Is(target error) bool {
	switch target {
	case ErrUnauthorized:
		return e.Status == http.StatusUnauthorized
	case ErrForbidden:
		return e.Status == http.StatusForbidden
	case ErrQuotaExceeded:
		return e.Status == http.StatusTooManyRequests
	}
	return false
}

// IsNotFound reports whether err is a 404 API error.
func IsNotFound(err error) bool {
	var e *Error
	return errors.As(err, &e) && e.Status == http.StatusNotFound
}

// IsBusy reports whether err is a 429 back-pressure rejection.
func IsBusy(err error) bool {
	var e *Error
	return errors.As(err, &e) && e.Status == http.StatusTooManyRequests
}

// Client talks to one gridd daemon.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration
	apiKey  string
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient replaces the underlying *http.Client (default:
// 10-second timeout).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times a failed call is retried (see the
// package comment for which failures qualify). 0 disables retrying.
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the initial retry backoff (doubles per attempt;
// a server Retry-After hint wins when larger).
func WithBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// WithAPIKey attaches a tenant API key (Authorization: Bearer) to
// every request — required by daemons started with -tenants. An empty
// key is a no-op, so callers can pass os.Getenv("GRIDD_API_KEY")
// unconditionally.
func WithAPIKey(key string) Option { return func(c *Client) { c.apiKey = key } }

// New builds a client for the daemon at base (e.g.
// "http://localhost:8042").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      &http.Client{Timeout: 10 * time.Second},
		retries: 2,
		backoff: 100 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Base returns the daemon base URL.
func (c *Client) Base() string { return c.base }

// retryable reports whether a call may be reissued. Non-idempotent
// methods (the POST submissions) are retried only on 429 back-pressure
// — the one rejection where the server provably did not accept the
// work. A transport failure or 5xx on a POST is surfaced: the
// submission may have landed, and a blind retry would duplicate it.
func retryable(method string, err *Error) bool {
	if err.Status == http.StatusTooManyRequests {
		return true
	}
	if method == http.MethodPost {
		return false
	}
	return err.Status == 0 || err.Status >= 500
}

// do issues one JSON request with the retry policy. in (when non-nil)
// is marshalled as the body; out (when non-nil) receives the decoded
// 2xx response body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.doRetry(ctx, method, path, in, out, false)
}

// doRetry is do with an idempotency override: endpoints that are safe
// to reissue regardless of method (the fleet completion report, whose
// second delivery is a server-side no-op) retry POSTs on transport
// failures and 5xx too.
func (c *Client) doRetry(ctx context.Context, method, path string, in, out any, idempotent bool) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
	}
	var last *Error
	for attempt := 0; ; attempt++ {
		apiErr := c.once(ctx, method, path, body, out)
		if apiErr == nil {
			return nil
		}
		last = apiErr
		retry := retryable(method, apiErr)
		if idempotent && (apiErr.Status == 0 || apiErr.Status >= 500) {
			retry = true
		}
		if attempt >= c.retries || !retry {
			break
		}
		// Jittered backoff: N workers bouncing off one restarted
		// coordinator must not retry in lockstep. A server Retry-After
		// hint is honoured as a floor, de-synchronized by up to one
		// base backoff on top.
		wait := jitter(c.backoff << attempt)
		if apiErr.RetryAfter > 0 {
			if h := apiErr.RetryAfter + jitter(c.backoff); h > wait {
				wait = h
			}
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return last
}

// jitter spreads a wait uniformly over [d/2, d] (thundering-herd
// insurance for fleets of identically configured clients).
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int64N(int64(d)/2+1))
}

// once issues a single attempt.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) *Error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return &Error{Message: err.Error()}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.apiKey)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return &Error{Message: err.Error()}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return &Error{Status: resp.StatusCode, Message: err.Error()}
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return &Error{Status: resp.StatusCode, Message: fmt.Sprintf("decode response: %v", err)}
		}
	}
	return nil
}

// text issues a GET and returns the raw (non-JSON) body.
func (c *Client) text(ctx context.Context, path string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return "", &Error{Message: err.Error()}
	}
	if c.apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.apiKey)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", &Error{Message: err.Error()}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", &Error{Status: resp.StatusCode, Message: err.Error()}
	}
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp, raw)
	}
	return string(raw), nil
}

// decodeError turns a non-2xx response into the typed error.
func decodeError(resp *http.Response, raw []byte) *Error {
	e := &Error{Status: resp.StatusCode, Message: strings.TrimSpace(string(raw))}
	var env struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &env) == nil && env.Error != "" {
		e.Message = env.Error
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}
