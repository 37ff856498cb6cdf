package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/runtrace"
	"repro/internal/scenario"
)

// Run-lifecycle API: the wire types are the server's own
// (scenario.HTTPRequest for submissions, api.RunStatus / api.Event /
// scenario.ResultJSON for answers), so client and daemon cannot drift.

// SubmitRun starts a scenario run asynchronously (POST /v1/runs) and
// returns its initial status (state "queued", carrying the run id).
func (c *Client) SubmitRun(ctx context.Context, req scenario.HTTPRequest) (api.RunStatus, error) {
	var st api.RunStatus
	err := c.do(ctx, http.MethodPost, "/v1/runs", req, &st)
	return st, err
}

// Run fetches one run's typed status, including per-cell timings.
func (c *Client) Run(ctx context.Context, id string) (api.RunStatus, error) {
	var st api.RunStatus
	err := c.do(ctx, http.MethodGet, "/v1/runs/"+id, nil, &st)
	return st, err
}

// Runs lists the daemon's stored runs in submission order.
func (c *Client) Runs(ctx context.Context) ([]api.RunStatus, error) {
	var out []api.RunStatus
	err := c.do(ctx, http.MethodGet, "/v1/runs", nil, &out)
	return out, err
}

// CancelRun requests cooperative cancellation (DELETE /v1/runs/{id})
// and returns the status after the request. A run that already
// finished answers 409, surfaced as a typed *Error.
func (c *Client) CancelRun(ctx context.Context, id string) (api.RunStatus, error) {
	var st api.RunStatus
	err := c.do(ctx, http.MethodDelete, "/v1/runs/"+id, nil, &st)
	return st, err
}

// RunResult fetches a finished run's typed result cells.
func (c *Client) RunResult(ctx context.Context, id string) (scenario.ResultJSON, error) {
	var out scenario.ResultJSON
	err := c.do(ctx, http.MethodGet, "/v1/runs/"+id+"/result", nil, &out)
	return out, err
}

// RunResultText fetches a finished run's rendering in the given
// format ("text" — byte-identical to the CLI table — or "csv").
func (c *Client) RunResultText(ctx context.Context, id, format string) (string, error) {
	return c.text(ctx, "/v1/runs/"+id+"/result?format="+format)
}

// RunTrace fetches a finished run's recorded event trace as raw JSONL
// (GET /v1/runs/{id}/trace). cell >= 0 filters to one cell; pass a
// negative cell for the whole run. The transport negotiates gzip
// transparently. Runs whose spec did not set the trace axis answer
// 404, surfaced as a typed *Error.
func (c *Client) RunTrace(ctx context.Context, id string, cell int) (string, error) {
	path := "/v1/runs/" + id + "/trace"
	if cell >= 0 {
		path += "?cell=" + strconv.Itoa(cell)
	}
	return c.text(ctx, path)
}

// RunTraceLines fetches a finished run's trace and decodes it into
// typed lines (meta lines carry cluster metadata, event lines one
// simulation event each).
func (c *Client) RunTraceLines(ctx context.Context, id string, cell int) ([]runtrace.Line, error) {
	raw, err := c.RunTrace(ctx, id, cell)
	if err != nil {
		return nil, err
	}
	return runtrace.ParseLines(strings.NewReader(raw))
}

// StreamEvents subscribes to the run's SSE progress stream and calls
// fn for every event, starting from the beginning of the run's history
// (late subscribers replay every cell). It returns nil when the stream
// ends with the terminal state event, fn's error if fn aborts, or the
// transport/context error otherwise.
func (c *Client) StreamEvents(ctx context.Context, id string, fn func(api.Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/runs/"+id+"/events", nil)
	if err != nil {
		return &Error{Message: err.Error()}
	}
	req.Header.Set("Accept", "text/event-stream")
	if c.apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.apiKey)
	}
	// Streams outlive the default request timeout: use a timeout-free
	// copy of the transport and rely on ctx for cancellation.
	hc := &http.Client{Transport: c.hc.Transport}
	resp, err := hc.Do(req)
	if err != nil {
		return &Error{Message: err.Error()}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf [4 << 10]byte
		n, _ := resp.Body.Read(buf[:])
		return decodeError(resp, buf[:n])
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	var data strings.Builder
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		case line == "" && data.Len() > 0:
			var e api.Event
			if err := json.Unmarshal([]byte(data.String()), &e); err != nil {
				return &Error{Message: fmt.Sprintf("bad event payload: %v", err)}
			}
			data.Reset()
			if err := fn(e); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return &Error{Message: err.Error()}
	}
	return nil
}

// WaitRun polls until the run reaches a terminal state (the fallback
// for callers not consuming the event stream).
func (c *Client) WaitRun(ctx context.Context, id string, poll time.Duration) (api.RunStatus, error) {
	if poll <= 0 {
		poll = 25 * time.Millisecond
	}
	for {
		st, err := c.Run(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-time.After(poll):
		case <-ctx.Done():
			return st, ctx.Err()
		}
	}
}

// RunToCompletion submits a run, streams its events through onEvent
// (which may be nil), and returns the terminal status. If the event
// stream fails mid-run it falls back to polling.
func (c *Client) RunToCompletion(ctx context.Context, req scenario.HTTPRequest, onEvent func(api.Event)) (api.RunStatus, error) {
	st, err := c.SubmitRun(ctx, req)
	if err != nil {
		return st, err
	}
	streamErr := c.StreamEvents(ctx, st.ID, func(e api.Event) error {
		if onEvent != nil {
			onEvent(e)
		}
		return nil
	})
	if streamErr != nil && ctx.Err() != nil {
		return st, ctx.Err()
	}
	return c.WaitRun(ctx, st.ID, 0)
}
