package runtrace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// WriteJSONL streams traces as JSON Lines. Each trace contributes one
// meta line followed by one line per event, e.g.
//
//	{"cell":0,"label":"easy","ev":"meta","clusters":[{"m":64}],"events":412}
//	{"cell":0,"label":"easy","ev":"submit","t":0,"job":1,"procs":8}
//	{"cell":0,"label":"easy","ev":"start","t":0,"job":1,"procs":8}
//
// Event lines omit "job" for non-job-scoped events (crash/repair, job
// -1), meta lines omit "dropped" when it is 0, and event lines carry a
// "cluster" field only when the cluster has a name. Floats use
// Go's %g shortest form, which round-trips exactly — equal traces
// always serialize to identical bytes.
func WriteJSONL(w io.Writer, traces []CellTrace) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var buf []byte
	for i := range traces {
		var err error
		buf, err = writeTrace(bw, &traces[i], buf)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeTrace(bw *bufio.Writer, tr *CellTrace, buf []byte) ([]byte, error) {
	prefix := []byte(`{"cell":` + strconv.Itoa(tr.Cell))
	if tr.Label != "" {
		lab, err := json.Marshal(tr.Label)
		if err != nil {
			return buf, err
		}
		prefix = append(prefix, `,"label":`...)
		prefix = append(prefix, lab...)
	}
	clusters, err := json.Marshal(tr.Clusters)
	if err != nil {
		return buf, err
	}
	meta := append([]byte(nil), prefix...)
	meta = append(meta, `,"ev":"meta","clusters":`...)
	meta = append(meta, clusters...)
	meta = append(meta, `,"events":`...)
	meta = strconv.AppendInt(meta, int64(len(tr.Events)), 10)
	if tr.Dropped != 0 {
		meta = append(meta, `,"dropped":`...)
		meta = strconv.AppendInt(meta, int64(tr.Dropped), 10)
	}
	meta = append(meta, "}\n"...)
	if _, err := bw.Write(meta); err != nil {
		return buf, err
	}

	// Pre-marshal the per-cluster name suffixes once.
	suffixes := make([][]byte, len(tr.Clusters))
	for i, c := range tr.Clusters {
		if c.Name == "" {
			continue
		}
		name, err := json.Marshal(c.Name)
		if err != nil {
			return buf, err
		}
		s := append([]byte(`,"cluster":`), name...)
		suffixes[i] = s
	}

	for _, e := range tr.Events {
		buf = buf[:0]
		buf = append(buf, prefix...)
		buf = append(buf, `,"ev":"`...)
		buf = append(buf, e.Type.String()...)
		buf = append(buf, `","t":`...)
		buf = strconv.AppendFloat(buf, e.T, 'g', -1, 64)
		if e.Job != -1 {
			buf = append(buf, `,"job":`...)
			buf = strconv.AppendInt(buf, int64(e.Job), 10)
		}
		buf = append(buf, `,"procs":`...)
		buf = strconv.AppendInt(buf, int64(e.Procs), 10)
		if int(e.Cluster) < len(suffixes) && suffixes[e.Cluster] != nil {
			buf = append(buf, suffixes[e.Cluster]...)
		}
		buf = append(buf, "}\n"...)
		if _, err := bw.Write(buf); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// Line is the decoded form of one JSONL trace line — either a meta line
// (Ev == "meta", Clusters/Events/Dropped populated) or an event line.
// Job is -1 when the line carried no job id.
type Line struct {
	Cell     int           `json:"cell"`
	Label    string        `json:"label,omitempty"`
	Ev       string        `json:"ev"`
	T        float64       `json:"t"`
	Job      int           `json:"job"`
	Procs    int           `json:"procs"`
	Cluster  string        `json:"cluster,omitempty"`
	Clusters []ClusterInfo `json:"clusters,omitempty"`
	Events   int           `json:"events,omitempty"`
	Dropped  int           `json:"dropped,omitempty"`
}

// ParseLines decodes a JSONL trace stream. Blank lines are skipped.
func ParseLines(r io.Reader) ([]Line, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var lines []Line
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		ln := Line{Job: -1}
		if err := json.Unmarshal(raw, &ln); err != nil {
			return nil, fmt.Errorf("runtrace: line %d: %w", len(lines)+1, err)
		}
		lines = append(lines, ln)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return lines, nil
}

// Rebuild reassembles CellTraces from decoded lines (the inverse of
// WriteJSONL for well-formed streams). Traces are keyed by (cell,
// label) in order of first appearance. A trace takes its clusters and
// drop count from the last meta line for its key, and its events name
// clusters of that line, wherever it stands; a trace without one has no
// cluster metadata. A line whose job, processor count or cluster an
// Event cannot hold is an error.
func Rebuild(lines []Line) ([]CellTrace, error) {
	type key struct {
		cell  int
		label string
	}
	index := map[key]int{}
	var traces []CellTrace
	at := func(k key) *CellTrace {
		if i, ok := index[k]; ok {
			return &traces[i]
		}
		index[k] = len(traces)
		traces = append(traces, CellTrace{Cell: k.cell, Label: k.label})
		return &traces[len(traces)-1]
	}
	for _, ln := range lines {
		tr := at(key{ln.Cell, ln.Label})
		if ln.Ev == "meta" {
			tr.Clusters = ln.Clusters
			tr.Dropped = ln.Dropped
		}
	}
	for i, ln := range lines {
		if ln.Ev == "meta" {
			continue
		}
		tr := at(key{ln.Cell, ln.Label})
		typ, ok := EventTypeOf(ln.Ev)
		if !ok {
			return nil, fmt.Errorf("runtrace: line %d: unknown event %q", i+1, ln.Ev)
		}
		if int(int32(ln.Job)) != ln.Job || int(int32(ln.Procs)) != ln.Procs {
			return nil, fmt.Errorf("runtrace: line %d: job %d on %d processors out of range", i+1, ln.Job, ln.Procs)
		}
		ci := 0
		if ln.Cluster != "" {
			ci = -1
			for j, c := range tr.Clusters {
				if c.Name == ln.Cluster {
					ci = j
					break
				}
			}
			if ci < 0 {
				return nil, fmt.Errorf("runtrace: line %d: unknown cluster %q", i+1, ln.Cluster)
			}
			if ci > math.MaxUint8 {
				return nil, fmt.Errorf("runtrace: line %d: cluster %q is number %d; an event names one of the first %d", i+1, ln.Cluster, ci, math.MaxUint8+1)
			}
		}
		tr.Events = append(tr.Events, Event{
			T: ln.T, Job: int32(ln.Job), Procs: int32(ln.Procs),
			Type: typ, Cluster: uint8(ci),
		})
	}
	return traces, nil
}
