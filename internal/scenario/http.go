package scenario

import "runtime"

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
	// Seed overrides the base seed (default 42).
	Seed *uint64 `json:"seed,omitempty"`
	// Quick shrinks workloads ~10x (the CLI -quick flag).
	Quick bool `json:"quick,omitempty"`
	// Workers is how many cells run at once (0/1 = sequential, on the
	// caller's goroutine; capped at GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
}

// Options resolves the effective RunOptions of the request for spec:
// base seed 42 unless Seed is set, an explicit seed beating a
// Spec-pinned one; Quick shrinks workloads 10x; Workers is capped at
// GOMAXPROCS. The daemon and the local CLI both resolve runs here, so
// the effective seed is known (and shown by the status endpoint)
// before the run executes.
func (req *HTTPRequest) Options(spec *Spec) RunOptions {
	opt := RunOptions{Seed: 42, Scale: Scale{Workers: min(req.Workers, runtime.GOMAXPROCS(0))}}
	if req.Seed != nil {
		opt.Seed = *req.Seed
		opt.SeedExplicit = true
	}
	opt.Seed = spec.EffectiveSeed(opt)
	if req.Quick {
		opt.Scale.JobFactor = 10
	}
	return opt
}
