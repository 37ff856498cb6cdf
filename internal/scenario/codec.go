package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// MarshalIndent returns the Spec's canonical JSON bytes: indented, with
// HTML characters left unescaped. Decoding them yields a Spec that runs
// cell-for-cell identically to the original (the typed Params accessors
// absorb JSON's float64/[]any decoding).
func (s *Spec) MarshalIndent() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode parses a Spec from JSON, rejecting unknown fields (a typo in
// a scenario file should fail loudly, not silently fall back to a
// default). It does not judge the spec: Load, Run and the API call
// Validate, and a run store decodes the specs it holds as they were
// accepted.
func Decode(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: decode: %w", err)
	}
	return &s, nil
}

// Load reads a Spec from a JSON file and validates it.
func Load(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	s, err := Decode(f)
	if err == nil {
		err = s.Validate(Limits{})
	}
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return s, nil
}
