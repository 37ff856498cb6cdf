package store

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// TenantConfig is one entry of the -tenants file. Exactly one of Key
// (plaintext, convenient for dev) or KeySHA256 (hex digest, so the
// config file never holds the secret) must be set.
type TenantConfig struct {
	Name string `json:"name"`
	// Key is the plaintext API key (dev convenience).
	Key string `json:"key,omitempty"`
	// KeySHA256 is the lowercase hex SHA-256 of the API key.
	KeySHA256 string `json:"key_sha256,omitempty"`
	// MaxActive caps this tenant's concurrently admitted (queued +
	// running) runs. 0 means 2.
	MaxActive int `json:"max_active,omitempty"`
	// SubmitRate refills the submission token bucket, in submissions
	// per second. 0 means 5/s.
	SubmitRate float64 `json:"submit_rate,omitempty"`
	// Burst is the bucket capacity. 0 means max(2×rate, 1).
	Burst float64 `json:"burst,omitempty"`
}

// Tenant is one tenant's live admission state: an active-run cap plus a
// token-bucket submit-rate limit, both private to the tenant so one
// greedy client cannot starve the rest.
type Tenant struct {
	Name string

	mu         sync.Mutex
	maxActive  int
	rate       float64
	burst      float64
	tokens     float64
	lastRefill time.Time
	active     int
}

// TenantSet resolves API keys to tenants.
type TenantSet struct {
	byHash  map[string]*Tenant
	ordered []*Tenant
}

// LoadTenants reads and validates a tenants file.
func LoadTenants(path string) (*TenantSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseTenants(b)
}

// ParseTenants builds a TenantSet from the JSON tenants config: either
// a bare array of tenant objects or {"tenants": [...]}.
func ParseTenants(b []byte) (*TenantSet, error) {
	var cfgs []TenantConfig
	if err := json.Unmarshal(b, &cfgs); err != nil {
		var wrap struct {
			Tenants []TenantConfig `json:"tenants"`
		}
		if err2 := json.Unmarshal(b, &wrap); err2 != nil || wrap.Tenants == nil {
			return nil, fmt.Errorf("store: tenants file: %v", err)
		}
		cfgs = wrap.Tenants
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("store: tenants file defines no tenants")
	}
	ts := &TenantSet{byHash: make(map[string]*Tenant)}
	seen := make(map[string]bool)
	for i, c := range cfgs {
		if c.Name == "" {
			return nil, fmt.Errorf("store: tenant %d: missing name", i)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("store: duplicate tenant name %q", c.Name)
		}
		seen[c.Name] = true
		var hash string
		switch {
		case c.Key != "" && c.KeySHA256 != "":
			return nil, fmt.Errorf("store: tenant %q: set key or key_sha256, not both", c.Name)
		case c.Key != "":
			hash = HashKey(c.Key)
		case c.KeySHA256 != "":
			hash = strings.ToLower(c.KeySHA256)
			if len(hash) != sha256.Size*2 {
				return nil, fmt.Errorf("store: tenant %q: key_sha256 must be %d hex chars", c.Name, sha256.Size*2)
			}
			if _, err := hex.DecodeString(hash); err != nil {
				return nil, fmt.Errorf("store: tenant %q: key_sha256 is not hex", c.Name)
			}
		default:
			return nil, fmt.Errorf("store: tenant %q: missing key or key_sha256", c.Name)
		}
		if _, dup := ts.byHash[hash]; dup {
			return nil, fmt.Errorf("store: tenant %q: key collides with another tenant", c.Name)
		}
		if c.MaxActive < 0 || c.SubmitRate < 0 || c.Burst < 0 {
			return nil, fmt.Errorf("store: tenant %q: negative quota", c.Name)
		}
		t := &Tenant{
			Name:      c.Name,
			maxActive: c.MaxActive,
			rate:      c.SubmitRate,
			burst:     c.Burst,
		}
		if t.maxActive == 0 {
			t.maxActive = 2
		}
		if t.rate == 0 {
			t.rate = 5
		}
		if t.burst == 0 {
			t.burst = max(2*t.rate, 1)
		}
		t.tokens = t.burst
		ts.byHash[hash] = t
		ts.ordered = append(ts.ordered, t)
	}
	return ts, nil
}

// HashKey returns the lowercase hex SHA-256 of an API key.
func HashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// Lookup resolves an API key; ok is false for unknown keys. Comparison
// is over fixed-length digests in constant time.
func (ts *TenantSet) Lookup(key string) (*Tenant, bool) {
	want := sha256.Sum256([]byte(key))
	for hash, t := range ts.byHash {
		have, _ := hex.DecodeString(hash)
		if subtle.ConstantTimeCompare(want[:], have) == 1 {
			return t, true
		}
	}
	return nil, false
}

// Names lists tenant names in config order.
func (ts *TenantSet) Names() []string {
	out := make([]string, len(ts.ordered))
	for i, t := range ts.ordered {
		out[i] = t.Name
	}
	return out
}

// Admit decides a submission at time now. Admission costs one bucket
// token and one active-run slot (released by Release when the run
// reaches a terminal state). On refusal, retry says how long until the
// tenant should try again.
func (t *Tenant) Admit(now time.Time) (ok bool, retry time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.refill(now)
	if t.tokens < 1 {
		return false, t.tokenWait()
	}
	if t.active >= t.maxActive {
		// Run durations are unknowable up front; a flat second keeps
		// clients polling without hammering.
		return false, time.Second
	}
	t.tokens--
	t.active++
	return true, 0
}

// AdmitCached decides a memo-cache-hit submission: it costs a rate
// token (cache hits are still requests) but no active-run slot, since
// no cells execute.
func (t *Tenant) AdmitCached(now time.Time) (ok bool, retry time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.refill(now)
	if t.tokens < 1 {
		return false, t.tokenWait()
	}
	t.tokens--
	return true, 0
}

// Release returns an active-run slot after a run reaches a terminal
// state (or its admission is rolled back on a failed persist).
func (t *Tenant) Release() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.active > 0 {
		t.active--
	}
}

// refill tops up the token bucket for the time elapsed since the last
// refill. Caller holds t.mu.
func (t *Tenant) refill(now time.Time) {
	if t.lastRefill.IsZero() {
		t.lastRefill = now
		return
	}
	dt := now.Sub(t.lastRefill).Seconds()
	if dt <= 0 {
		return
	}
	t.tokens = min(t.burst, t.tokens+dt*t.rate)
	t.lastRefill = now
}

// tokenWait estimates the delay until one token is available. Caller
// holds t.mu.
func (t *Tenant) tokenWait() time.Duration {
	need := 1 - t.tokens
	d := time.Duration(need / t.rate * float64(time.Second))
	if d < time.Second {
		d = time.Second // floor: Retry-After is whole seconds on the wire
	}
	return d
}
