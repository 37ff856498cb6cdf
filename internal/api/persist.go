package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"strings"
	"time"

	"repro/internal/runtrace"
	"repro/internal/scenario"
	"repro/internal/store"
)

// terminalPayload is the opaque Terminal blob the store keeps for a
// finished run: everything needed to re-serve the status, the SSE event
// history, /result in every format, and /trace byte-identically after a
// restart. A status's per-cell timings are read back from the cell
// events; the "timings" list earlier builds wrote beside them is
// ignored. All fields are typed structs (no raw []any), so a JSON round
// trip cannot blur int/float distinctions the text renderer depends on.
type terminalPayload struct {
	Events     []Event    `json:"events,omitempty"`
	CellsDone  int        `json:"cells_done,omitempty"`
	CellsTotal int        `json:"cells_total,omitempty"`
	Result     *resultRec `json:"result,omitempty"`
	// TraceJSONL is the run's event trace in the exact JSONL encoding
	// /v1/runs/{id}/trace serves (runtrace round-trips it losslessly).
	TraceJSONL string `json:"trace_jsonl,omitempty"`
}

// resultRec persists a scenario.Result. Form picks the rebuild path:
// "cells" (typed cells re-render the table) or "custom" (captured text
// output of a figure).
type resultRec struct {
	Form    string    `json:"form"`
	SpecID  string    `json:"spec_id,omitempty"`
	Kind    string    `json:"kind,omitempty"`
	Seed    uint64    `json:"seed"`
	Title   string    `json:"title,omitempty"`
	Headers []string  `json:"headers,omitempty"`
	Axes    int       `json:"axes,omitempty"`
	Cells   []cellRec `json:"cells,omitempty"`
	Text    string    `json:"text,omitempty"`
}

// cellRec is one typed result cell, values wrapped in the tagged Value
// codec shared with the fleet wire protocol.
type cellRec struct {
	Index    int              `json:"index"`
	Values   []scenario.Value `json:"values"`
	Duration float64          `json:"duration_seconds,omitempty"`
}

// buildTerminal marshals the terminal payload of a run that is about to
// publish its closing event and, when done, take res as its result —
// the record is written before either is visible. The service mutex
// must be held (reads the run's mutable fields).
func buildTerminal(r *Run, closing Event, res *scenario.Result) (json.RawMessage, error) {
	p := terminalPayload{
		Events:     append(r.events[:len(r.events):len(r.events)], closing),
		CellsDone:  r.cellsDone,
		CellsTotal: r.cellsTotal,
	}
	if res != nil {
		rr, err := encodeResult(res)
		if err != nil {
			return nil, err
		}
		p.Result = rr
		if len(res.Traces) > 0 {
			var buf bytes.Buffer
			if err := runtrace.WriteJSONL(&buf, res.Traces); err != nil {
				return nil, err
			}
			p.TraceJSONL = buf.String()
		}
	}
	return json.Marshal(&p)
}

func encodeResult(res *scenario.Result) (*resultRec, error) {
	rr := &resultRec{
		SpecID: res.SpecID, Kind: res.Kind, Seed: res.Seed,
		Title: res.Title, Headers: res.Headers, Axes: res.Axes,
	}
	if res.Table != nil {
		rr.Form = "cells"
		rr.Cells = make([]cellRec, len(res.Cells))
		for i, c := range res.Cells {
			vals, err := scenario.EncodeRow(c.Values)
			if err != nil {
				return nil, err
			}
			rr.Cells[i] = cellRec{Index: c.Index, Values: vals, Duration: c.Duration}
		}
		return rr, nil
	}
	// Custom renderer (figures): capture its text once; the render is
	// deterministic, so the capture is the output.
	rr.Form = "custom"
	var buf bytes.Buffer
	if err := res.EmitFormat(&buf, "text"); err != nil {
		return nil, err
	}
	rr.Text = buf.String()
	return rr, nil
}

func decodeResult(rr *resultRec) (*scenario.Result, error) {
	var res *scenario.Result
	switch rr.Form {
	case "cells":
		cells := make([]scenario.Cell, len(rr.Cells))
		for i, c := range rr.Cells {
			vals, err := scenario.DecodeRow(c.Values)
			if err != nil {
				return nil, err
			}
			cells[i] = scenario.Cell{Index: c.Index, Values: vals, Duration: c.Duration}
		}
		// NewCellResult re-renders the text table from the typed cells —
		// byte-identical because the Value codec round-trips exactly.
		res = scenario.NewCellResult(rr.Title, rr.Headers, rr.Axes, cells)
	case "custom":
		text := rr.Text
		res = scenario.CustomResult(func(w io.Writer) error {
			_, err := io.WriteString(w, text)
			return err
		})
		res.Title, res.Headers = rr.Title, rr.Headers
	default:
		return nil, fmt.Errorf("api: unknown persisted result form %q", rr.Form)
	}
	res.SpecID, res.Kind, res.Seed, res.Axes = rr.SpecID, rr.Kind, rr.Seed, rr.Axes
	return res, nil
}

// applyTerminal restores a run's terminal fields from its persisted
// payload.
func applyTerminal(r *Run, payload json.RawMessage) error {
	var p terminalPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return err
	}
	r.events = p.Events
	r.cellsDone, r.cellsTotal = p.CellsDone, p.CellsTotal
	if p.Result != nil {
		res, err := decodeResult(p.Result)
		if err != nil {
			return err
		}
		if p.TraceJSONL != "" {
			lines, err := runtrace.ParseLines(strings.NewReader(p.TraceJSONL))
			if err != nil {
				return err
			}
			traces, err := runtrace.Rebuild(lines)
			if err != nil {
				return err
			}
			res.Traces = traces
		}
		r.result = res
	}
	return nil
}

// record snapshots the run's durable identity for a WAL submit record.
// The service mutex must be held.
func (r *Run) record() *store.RunRecord {
	return &store.RunRecord{
		ID: r.id, Seq: uint64(r.seqNo), Tenant: r.tenant,
		State: string(r.state), Error: r.err,
		Cached: r.cached, Source: r.source, MemoKey: r.memoKey,
		Spec: r.specJSON, Seed: r.opt.Seed, JobFactor: r.opt.Scale.JobFactor,
		Created: r.created, Started: r.started, Finished: r.finished,
	}
}

// runFromRecord rebuilds a run from its durable record. The returned
// run never executes (its context is pre-cancelled); non-terminal
// records come back in their persisted state for the caller to repair.
// The spec is decoded, not validated again: the WAL holds what an
// earlier build accepted, and a stricter Validate must not drop that
// run's history.
func runFromRecord(rec *store.RunRecord) (*Run, error) {
	spec, err := scenario.Decode(bytes.NewReader(rec.Spec))
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &Run{
		id: rec.ID, seqNo: int(rec.Seq), spec: spec,
		opt: scenario.RunOptions{
			Seed: rec.Seed, SeedExplicit: true,
			Scale: scenario.Scale{JobFactor: rec.JobFactor},
		},
		ctx: ctx, cancel: cancel,
		state: RunState(rec.State), err: rec.Error,
		created: rec.Created, started: rec.Started, finished: rec.Finished,
		tenant: rec.Tenant, cached: rec.Cached, source: rec.Source, memoKey: rec.MemoKey,
		specJSON: append(json.RawMessage(nil), rec.Spec...),
		wake:     make(chan struct{}),
	}
	if r.state.Terminal() && rec.Terminal != nil {
		if err := applyTerminal(r, rec.Terminal); err != nil {
			return nil, fmt.Errorf("terminal payload: %w", err)
		}
		if r.cached {
			// The payload is the source run's (shared by the store when the
			// record names a source); a memo hit's own history is the one
			// event it was born with, and it timed no cells.
			r.events = cachedHistory()
		}
	}
	return r, nil
}

// recover rebuilds the run store from the durable store at boot: every
// persisted run is restored, runs that were queued or running when the
// process died are finalized as failed with a restart reason, the memo
// index is rebuilt from done runs, the monotonic counters (run ID
// sequence, eviction count, cache hits) resume where they left off, and
// the history is cut back to MaxHistory. The repairs and evictions are
// themselves persisted, as one batch, so the next boot replays them
// instead of re-deciding. Runs only before the executor pool starts, so
// no locking is needed.
func (s *RunService) recover() {
	st := s.cfg.Store
	var repairs []store.Record
	for _, rec := range st.Runs() {
		r, err := runFromRecord(rec)
		if err != nil {
			log.Printf("api: recover: dropping run %s: %v", rec.ID, err)
			continue
		}
		if !r.state.Terminal() {
			r.state = RunFailed
			r.err = "interrupted by daemon restart"
			r.finished = time.Now().Round(0)
			r.publish(Event{Type: "state", State: RunFailed, Error: r.err})
			repairs = append(repairs, store.Record{
				Op: "terminal", ID: r.id, State: string(RunFailed),
				Error: r.err, Finished: r.finished,
			})
		}
		s.runs[r.id] = r
		s.order = append(s.order, r)
		if r.state == RunDone && r.memoKey != "" {
			if _, ok := s.memo[r.memoKey]; !ok {
				s.memo[r.memoKey] = r
			}
		}
	}
	s.seq = int(st.Seq())
	s.evicted = st.Evicted()
	s.cacheHits = st.CacheHits()
	// A crash between a submit and the evictions of its batch, or a
	// smaller MaxHistory than last time, leaves more runs than fit.
	victims := s.victimsLocked(0)
	if repairs = append(repairs, evictRecords(victims)...); len(repairs) > 0 {
		if err := st.Append(repairs...); err != nil {
			log.Printf("api: recover: persist %d repairs: %v", len(repairs), err)
		}
	}
	s.dropLocked(victims)
}
