package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync/atomic"
)

// catalogHash caches CatalogHash for the current registry state;
// Register and RegisterKind reset it.
var catalogHash atomic.Pointer[string]

// CatalogHash fingerprints the registered scenario surface: the sorted
// kind names plus the canonical JSON of every built-in spec, in
// catalog order. Two binaries with equal hashes expand a spec into the
// same cells with the same defaults, so a fleet coordinator uses the
// hash (via the /v1/version build info) to refuse workers whose
// catalog diverged — merging their cells could silently mix two
// different experiments into one table.
//
// The hash is computed once per registry state: every submission reads
// it (it is part of the memo key), and it changes only on registration.
func CatalogHash() string {
	if p := catalogHash.Load(); p != nil {
		return *p
	}
	h := sha256.New()
	for _, k := range Kinds() {
		fmt.Fprintf(h, "kind %s\n", k)
	}
	for _, s := range builtins {
		b, err := json.Marshal(s)
		if err != nil {
			// Specs are plain data and always marshal; keep the hash
			// total anyway rather than panicking in a version handler.
			fmt.Fprintf(h, "spec %s !%v\n", s.ID, err)
			continue
		}
		fmt.Fprintf(h, "spec %s %s\n", s.ID, b)
	}
	sum := hex.EncodeToString(h.Sum(nil))[:16]
	catalogHash.Store(&sum)
	return sum
}
