package api

import (
	"net/http"
	"runtime"

	"repro/internal/scenario"
)

// Version is the repo release string. Override at build time with
//
//	go build -ldflags "-X repro/internal/api.Version=v1.2.3"
var Version = "0.9.0"

// BuildInfo is the build identity of the gridd binary family. The daemon
// serves it at GET /v1/version, and the fleet coordinator compares it
// against every worker's before granting a lease: two builds that
// disagree on version, toolchain or catalog could produce subtly
// different cell rows, and a distributed run must never merge those
// into one table. The catalog hash guards the scenario semantics,
// version and toolchain (floating-point code generation differs across
// toolchains) guard the numerics.
type BuildInfo struct {
	Version     string `json:"version"`
	GoVersion   string `json:"go_version"`
	CatalogHash string `json:"catalog_hash"`
}

// CurrentBuild returns this binary's build identity.
func CurrentBuild() BuildInfo {
	return BuildInfo{
		Version:     Version,
		GoVersion:   runtime.Version(),
		CatalogHash: scenario.CatalogHash(),
	}
}

// Compatible reports whether two builds may share a distributed run.
// All three fields must match exactly.
func (b BuildInfo) Compatible(o BuildInfo) bool { return b == o }

// VersionInfo is the GET /v1/version payload: the build identity a
// fleet worker (or any client) checks compatibility against before
// doing work, plus the size of the catalog it serves.
type VersionInfo struct {
	BuildInfo
	Scenarios int `json:"scenarios"`
	Kinds     int `json:"kinds"`
}

// CurrentVersion returns this binary's build info.
func CurrentVersion() VersionInfo {
	return VersionInfo{
		BuildInfo: CurrentBuild(),
		Scenarios: len(scenario.Catalog()),
		Kinds:     len(scenario.Kinds()),
	}
}

func handleVersion(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, CurrentVersion())
}
