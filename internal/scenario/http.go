package scenario

// This file holds the wire type of a scenario-run submission. The
// handlers live in internal/api (the /v1 run-lifecycle API); keeping
// the request shape here lets api and the client SDK share one
// definition without an import cycle.

// HTTPRequest is the body of POST /v1/runs: either a catalog id or an
// inline Spec, plus invocation options. Exactly one of ID and Spec must
// be set.
type HTTPRequest struct {
	// ID names a built-in catalog scenario.
	ID string `json:"id,omitempty"`
	// Spec is an inline scenario (the same JSON shape scenario files
	// use).
	Spec *Spec `json:"spec,omitempty"`
	// Seed overrides the base seed (default 42, as the CLI).
	Seed *uint64 `json:"seed,omitempty"`
	// Quick shrinks workloads ~10x (the CLI -quick flag).
	Quick bool `json:"quick,omitempty"`
	// Workers selects the cell worker pool (0/1 = sequential; capped
	// at GOMAXPROCS server-side).
	Workers int `json:"workers,omitempty"`
}
