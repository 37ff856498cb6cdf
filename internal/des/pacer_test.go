package des

import (
	"testing"
	"time"
)

func TestPacerMapping(t *testing.T) {
	anchor := time.Unix(1000, 0)
	p, err := NewPacer(60, anchor, 0) // one wall second = one virtual minute
	if err != nil {
		t.Fatal(err)
	}
	if got := p.VirtualNow(anchor); got != 0 {
		t.Fatalf("virtual time at anchor = %v, want 0", got)
	}
	if got := p.VirtualNow(anchor.Add(2 * time.Second)); got != 120 {
		t.Fatalf("virtual time after 2s = %v, want 120", got)
	}
	// Before the anchor the clock clamps (never runs backwards).
	if got := p.VirtualNow(anchor.Add(-time.Hour)); got != 0 {
		t.Fatalf("virtual time before anchor = %v, want 0", got)
	}
	// 300 virtual seconds ahead at 60x = 5 wall seconds.
	if got := p.WallUntil(300, anchor); got != 5*time.Second {
		t.Fatalf("WallUntil(300) = %v, want 5s", got)
	}
	// Already-passed virtual instants need no sleep.
	if got := p.WallUntil(60, anchor.Add(10*time.Second)); got != 0 {
		t.Fatalf("WallUntil(past) = %v, want 0", got)
	}
	// Far-future virtual times clamp to MaxSleep instead of overflowing
	// time.Duration into a negative (busy-spin) value.
	if got := p.WallUntil(1e18, anchor); got != MaxSleep {
		t.Fatalf("WallUntil(1e18) = %v, want %v", got, MaxSleep)
	}
	if got := p.WallUntil(1e308, anchor); got != MaxSleep {
		t.Fatalf("WallUntil(1e308) = %v, want %v", got, MaxSleep)
	}
}

func TestPacerAnchorOffset(t *testing.T) {
	anchor := time.Unix(5000, 0)
	p, err := NewPacer(2, anchor, 100) // anchored mid-simulation
	if err != nil {
		t.Fatal(err)
	}
	if got := p.VirtualNow(anchor.Add(3 * time.Second)); got != 106 {
		t.Fatalf("virtual time = %v, want 106", got)
	}
	if p.dilation != 2 {
		t.Fatalf("dilation = %v", p.dilation)
	}
}

func TestPacerRejectsBadDilation(t *testing.T) {
	for _, d := range []float64{0, -1} {
		if _, err := NewPacer(d, time.Now(), 0); err == nil {
			t.Fatalf("dilation %v accepted", d)
		}
	}
}

func TestPeekTime(t *testing.T) {
	s := New()
	if _, ok := s.PeekTime(); ok {
		t.Fatal("PeekTime on empty queue reported an event")
	}
	if err := s.At(5, func() {}); err != nil {
		t.Fatal(err)
	}
	if err := s.At(2, func() {}); err != nil {
		t.Fatal(err)
	}
	if next, ok := s.PeekTime(); !ok || next != 2 {
		t.Fatalf("PeekTime = %v,%v, want 2,true", next, ok)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.PeekTime(); ok {
		t.Fatal("PeekTime after drain reported an event")
	}
}
