package workload

import (
	"fmt"
	"testing"
)

// validateAll validates every job and checks ID uniqueness.
func validateAll(jobs []*Job) error {
	seen := make(map[int]bool, len(jobs))
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return err
		}
		if seen[j.ID] {
			return fmt.Errorf("duplicate job ID %d", j.ID)
		}
		seen[j.ID] = true
	}
	return nil
}

func TestSequentialGenerator(t *testing.T) {
	jobs := Sequential(GenConfig{N: 50, M: 100, Seed: 1})
	if len(jobs) != 50 {
		t.Fatalf("got %d jobs", len(jobs))
	}
	if err := validateAll(jobs); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.Kind != Rigid || j.MinProcs != 1 || j.MaxProcs != 1 {
			t.Fatalf("sequential job not 1-proc rigid: %+v", j)
		}
		if j.Release != 0 {
			t.Fatalf("offline generator produced release %v", j.Release)
		}
	}
}

func TestSequentialArrivals(t *testing.T) {
	jobs := Sequential(GenConfig{N: 50, Seed: 2, ArrivalRate: 0.1})
	prev := -1.0
	for _, j := range jobs {
		if j.Release < prev {
			t.Fatal("releases not non-decreasing")
		}
		prev = j.Release
	}
	if jobs[49].Release == 0 {
		t.Fatal("arrival rate ignored")
	}
}

func TestSequentialDeterminism(t *testing.T) {
	a := Sequential(GenConfig{N: 20, Seed: 7})
	b := Sequential(GenConfig{N: 20, Seed: 7})
	for i := range a {
		if a[i].SeqTime != b[i].SeqTime {
			t.Fatal("same seed produced different workloads")
		}
	}
	c := Sequential(GenConfig{N: 20, Seed: 8})
	same := true
	for i := range a {
		if a[i].SeqTime != c[i].SeqTime {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestMoldableGenerator(t *testing.T) {
	jobs := Parallel(GenConfig{N: 200, M: 64, Seed: 3})
	if len(jobs) != 200 {
		t.Fatalf("got %d jobs, want 200", len(jobs))
	}
	if err := validateAll(jobs); err != nil {
		t.Fatal(err)
	}
	sawWide := false
	for _, j := range jobs {
		if j.MaxProcs > 64 {
			t.Fatalf("MaxProcs %d exceeds platform width", j.MaxProcs)
		}
		if j.MaxProcs > 32 {
			sawWide = true
		}
		if !j.IsMonotone(64) {
			t.Fatalf("generated job %d not monotone", j.ID)
		}
	}
	if !sawWide {
		t.Fatal("no wide jobs generated in 200 draws")
	}
}

func TestMoldableRigidFraction(t *testing.T) {
	jobs := Parallel(GenConfig{N: 400, M: 32, Seed: 4, RigidFraction: 0.5})
	rigid := 0
	for _, j := range jobs {
		if j.Kind == Rigid {
			rigid++
			if j.MinProcs != j.MaxProcs {
				t.Fatal("rigid job with open range")
			}
		}
	}
	if rigid < 120 || rigid > 280 {
		t.Fatalf("rigid count %d far from 200", rigid)
	}
}

func TestMoldableWeights(t *testing.T) {
	jobs := Parallel(GenConfig{N: 100, M: 16, Seed: 5, Weighted: true})
	varied := false
	for _, j := range jobs {
		if j.Weight < 1 || j.Weight > 10 {
			t.Fatalf("weight %v outside [1,10]", j.Weight)
		}
		if j.Weight != jobs[0].Weight {
			varied = true
		}
	}
	if !varied {
		t.Fatal("weighted generator produced constant weights")
	}
}

func TestMoldableDueDates(t *testing.T) {
	jobs := Parallel(GenConfig{N: 50, M: 16, Seed: 6, DueDateSlack: 3})
	for _, j := range jobs {
		if j.DueDate < j.Release+j.TimeOn(j.MinProcs)-1e-9 {
			t.Fatalf("due date %v unreachable for job %d", j.DueDate, j.ID)
		}
	}
}

func TestMoldableMaxProcsCap(t *testing.T) {
	jobs := Parallel(GenConfig{N: 100, M: 128, Seed: 9, MaxProcsCap: 8})
	for _, j := range jobs {
		if j.MaxProcs > 8 {
			t.Fatalf("cap ignored: MaxProcs %d", j.MaxProcs)
		}
	}
}

func TestMixedDefaults(t *testing.T) {
	jobs := Mixed(GenConfig{N: 300, M: 32, Seed: 10})
	rigid := 0
	for _, j := range jobs {
		if j.Kind == Rigid {
			rigid++
		}
	}
	if rigid == 0 || rigid == 300 {
		t.Fatalf("Mixed produced %d rigid of 300", rigid)
	}
}

func TestCommunities(t *testing.T) {
	mix := CIMENTCommunities()
	var total float64
	for _, c := range mix {
		total += c.Share
	}
	if total < 0.99 || total > 1.01 {
		t.Fatalf("community shares sum to %v", total)
	}
	jobs := Communities(mix, 500, 104, 0.01, 11)
	if len(jobs) != 500 {
		t.Fatalf("got %d jobs, want 500", len(jobs))
	}
	if err := validateAll(jobs); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, j := range jobs {
		counts[j.Class]++
	}
	for _, c := range mix {
		if counts[c.Name] == 0 {
			t.Fatalf("community %s absent from 500 draws", c.Name)
		}
	}
	// Physics jobs must be sequential rigid per the paper.
	for _, j := range jobs {
		if j.Class == "physics" && (j.Kind != Rigid || j.MaxProcs != 1) {
			t.Fatalf("physics job not sequential rigid: %+v", j)
		}
	}
}
