package api

import (
	"net/http"

	"repro/internal/scenario"
	"repro/internal/version"
)

// BuildInfo identifies a binary well enough to refuse mixing
// incompatible coordinator and worker builds in one distributed run:
// the catalog hash guards the scenario semantics, version and
// toolchain guard the numerics.
type BuildInfo struct {
	Version     string `json:"version"`
	GoVersion   string `json:"go_version"`
	CatalogHash string `json:"catalog_hash"`
}

// CurrentBuild returns this binary's build identity.
func CurrentBuild() BuildInfo {
	return BuildInfo{
		Version:     version.Version,
		GoVersion:   version.Go(),
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
