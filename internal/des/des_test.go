package des

import (
	"math"
	"testing"
)

func TestEventOrder(t *testing.T) {
	s := New()
	var order []int
	add := func(tm float64, id int) {
		if err := s.At(tm, func() { order = append(order, id) }); err != nil {
			t.Fatal(err)
		}
	}
	add(5, 1)
	add(1, 2)
	add(3, 3)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{2, 3, 1}
	for i, id := range want {
		if order[i] != id {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 5 {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		id := i
		if err := s.At(7, func() { order = append(order, id) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

func TestSchedulingDuringRun(t *testing.T) {
	s := New()
	var hits []float64
	var chain func()
	chain = func() {
		hits = append(hits, s.Now())
		if len(hits) < 5 {
			if err := s.After(2, chain); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.At(1, chain); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 5 || hits[4] != 9 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestPastSchedulingRejected(t *testing.T) {
	s := New()
	if err := s.At(5, func() {}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.At(3, func() {}); err == nil {
		t.Fatal("past event accepted")
	}
	if err := s.After(-1, func() {}); err == nil {
		t.Fatal("negative delay accepted")
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var hits []float64
	for _, tm := range []float64{1, 2, 3, 10} {
		tt := tm
		if err := s.At(tt, func() { hits = append(hits, tt) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 {
		t.Fatalf("hits = %v", hits)
	}
	if s.Now() != 5 {
		t.Fatalf("clock = %v, want 5", s.Now())
	}
	if err := s.RunUntil(4); err == nil {
		t.Fatal("RunUntil into the past accepted")
	}
	if err := s.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 4 || s.Now() != 20 {
		t.Fatalf("hits = %v, clock = %v", hits, s.Now())
	}
}

func TestEventLimit(t *testing.T) {
	s := New()
	s.Limit = 10
	var loop func()
	loop = func() {
		if err := s.After(1, loop); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.At(0, loop); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err == nil {
		t.Fatal("runaway simulation not aborted")
	}
}

func TestNonFiniteTimeRejected(t *testing.T) {
	s := New()
	inf := 1.0
	for i := 0; i < 2000; i++ {
		inf *= 10
	}
	if err := s.At(inf, func() {}); err == nil {
		t.Fatal("infinite time accepted")
	}
}

// TestRefusesNilCallbackAndNonFiniteRunUntil: At and Feed refuse a nil
// callback instead of panicking in Run; RunUntil
// refuses a NaN or infinite horizon instead of leaving the clock there.
func TestRefusesNilCallbackAndNonFiniteRunUntil(t *testing.T) {
	s := New()
	if err := s.At(1, nil); err == nil {
		t.Fatal("At accepted a nil callback")
	}
	if err := s.Feed(1, nil); err == nil {
		t.Fatal("Feed accepted a nil callback")
	}
	for _, until := range []float64{math.NaN(), math.Inf(1)} {
		if err := s.RunUntil(until); err == nil {
			t.Fatalf("RunUntil(%v) accepted", until)
		}
	}
	if s.Now() != 0 || s.Pending() != 0 {
		t.Fatalf("clock %v with %d events pending after refusals, want 0 and 0", s.Now(), s.Pending())
	}
	ran := false
	if err := s.At(6, func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil || !ran || s.Now() != 6 {
		t.Fatalf("Run: %v, event ran %v, clock %v", err, ran, s.Now())
	}
}
