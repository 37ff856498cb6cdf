package store

import (
	"strings"
	"testing"
	"time"
)

func TestParseTenants(t *testing.T) {
	good := []string{
		`[{"name":"alpha","key":"alpha-key"}]`,
		`{"tenants":[{"name":"alpha","key":"alpha-key"},{"name":"beta","key_sha256":"` + HashKey("beta-key") + `"}]}`,
	}
	for _, in := range good {
		if _, err := ParseTenants([]byte(in)); err != nil {
			t.Errorf("ParseTenants(%s): %v", in, err)
		}
	}

	bad := map[string]string{
		`[]`:            "no tenants",
		`[{"key":"k"}]`: "missing name",
		`[{"name":"a","key":"k"},{"name":"a","key":"k2"}]`: "duplicate tenant name",
		`[{"name":"a"}]`: "missing key",
		`[{"name":"a","key":"k","key_sha256":"ab"}]`:                     "not both",
		`[{"name":"a","key_sha256":"abcd"}]`:                             "must be 64 hex chars",
		`[{"name":"a","key_sha256":"` + strings.Repeat("zz", 32) + `"}]`: "not hex",
		`[{"name":"a","key":"k"},{"name":"b","key":"k"}]`:                "collides",
		`[{"name":"a","key":"k","max_active":-1}]`:                       "negative quota",
		`not json`: "tenants file",
	}
	for in, frag := range bad {
		_, err := ParseTenants([]byte(in))
		if err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("ParseTenants(%s): err %v, want contains %q", in, err, frag)
		}
	}
}

func TestTenantLookup(t *testing.T) {
	ts, err := ParseTenants([]byte(`[{"name":"alpha","key":"alpha-key"},{"name":"beta","key_sha256":"` + HashKey("beta-key") + `"}]`))
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.Names(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("Names() = %v", got)
	}
	for key, want := range map[string]string{"alpha-key": "alpha", "beta-key": "beta"} {
		tn, ok := ts.Lookup(key)
		if !ok || tn.Name != want {
			t.Fatalf("Lookup(%q) = %v, %v", key, tn, ok)
		}
	}
	if _, ok := ts.Lookup("wrong"); ok {
		t.Fatal("Lookup accepted an unknown key")
	}
}

// TestTenantAdmission drives the token bucket with explicit clocks: no
// sleeps, fully deterministic.
func TestTenantAdmission(t *testing.T) {
	ts, err := ParseTenants([]byte(`[{"name":"a","key":"k","max_active":2,"submit_rate":1,"burst":3}]`))
	if err != nil {
		t.Fatal(err)
	}
	tn := ts.ordered[0]
	now := time.Unix(1000, 0)

	// Burst of 3 tokens but only 2 active slots.
	for i := 0; i < 2; i++ {
		if ok, _ := tn.Admit(now); !ok {
			t.Fatalf("admit %d refused", i)
		}
	}
	if tn.active != 2 {
		t.Fatalf("active = %d, want 2", tn.active)
	}
	ok, retry := tn.Admit(now)
	if ok || retry != time.Second {
		t.Fatalf("active-cap refusal: ok=%v retry=%v, want false/1s", ok, retry)
	}

	// A cache hit needs no slot — only a token (one left in the bucket).
	if ok, _ := tn.AdmitCached(now); !ok {
		t.Fatal("AdmitCached refused with a token available")
	}
	// Bucket empty now: even a cache hit is rate-limited.
	ok, retry = tn.AdmitCached(now)
	if ok || retry < time.Second {
		t.Fatalf("empty-bucket refusal: ok=%v retry=%v", ok, retry)
	}

	// Releasing a slot is not enough while the bucket is dry.
	tn.Release()
	if ok, _ := tn.Admit(now); ok {
		t.Fatal("admitted with empty bucket")
	}
	// One second refills one token (rate 1/s) → admit succeeds again.
	if ok, _ := tn.Admit(now.Add(time.Second)); !ok {
		t.Fatal("refused after refill")
	}
	// Refill never exceeds burst.
	tn.Release()
	tn.Release()
	far := now.Add(time.Hour)
	for i := 0; i < 3; i++ {
		if ok, _ := tn.AdmitCached(far); !ok {
			t.Fatalf("burst token %d missing after long idle", i)
		}
	}
	if ok, _ := tn.AdmitCached(far); ok {
		t.Fatal("bucket exceeded burst after long idle")
	}
}

func TestMemoKey(t *testing.T) {
	base := MemoKey([]byte(`{"id":"x"}`), 42, 1, "cat1")
	if len(base) != 16 {
		t.Fatalf("MemoKey length %d, want 16 hex chars", len(base))
	}
	if MemoKey([]byte(`{"id":"x"}`), 42, 1, "cat1") != base {
		t.Fatal("MemoKey not deterministic")
	}
	for name, other := range map[string]string{
		"spec":      MemoKey([]byte(`{"id":"y"}`), 42, 1, "cat1"),
		"seed":      MemoKey([]byte(`{"id":"x"}`), 43, 1, "cat1"),
		"jobFactor": MemoKey([]byte(`{"id":"x"}`), 42, 2, "cat1"),
		"catalog":   MemoKey([]byte(`{"id":"x"}`), 42, 1, "cat2"),
	} {
		if other == base {
			t.Errorf("MemoKey ignores %s", name)
		}
	}
}
