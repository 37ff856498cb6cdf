package main

import (
	"container/heap"
	"fmt"
	"math/rand/v2"
	"time"
)

// The sandbox this benchmark runs in drifts by ten to thirty percent
// from minute to minute (noisy neighbours), far more than the bounds a
// regression is held to. So every time-based end-to-end figure is
// host-speed-normalised: a fixed calibration kernel is timed between
// passes (or load slices) of the same run, each pass is scaled by
// calibNominalMS over the kernel's time right around it, and the median
// of the scaled passes is reported. A host running 10% slow then
// reports the same figures as a quiet one, and a host on which the
// kernel takes calibNominalMS reports raw times. Passes and slices are
// kept short (a few hundred ms) so that the kernel is timed often.
// Result files record the raw figures beside the normalised ones.

// calibNominalMS is the kernel's time on the reference host (the
// 2-core development box when quiet).
const calibNominalMS = 25.0

// calibrator times the kernel and remembers every sample of a run.
type calibrator struct {
	ms   []float64
	last time.Time // when the latest sample ended
}

// calibEvent and calibJob are the kernel's event and job records.
type calibEvent struct {
	at float64
	fn func()
}

type calibJob struct {
	id, procs int
	dur       float64
	name      string
}

type calibHeap []*calibEvent

func (h calibHeap) Len() int           { return len(h) }
func (h calibHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h calibHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calibHeap) Push(x any)        { *h = append(*h, x.(*calibEvent)) }
func (h *calibHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// calibJobs sizes the kernel to about calibNominalMS.
const calibJobs = 22_000

// sample runs the kernel once and records its time. The kernel
// is a small event simulation of the harness's own — an allocation per
// job and per event, closures, a binary heap, a map, string formatting
// — because what the host's noise slows is that mix: measured against
// the replay pass, a cache-resident sort-and-hash kernel moved only
// about half as much as the pass did when the host slowed (log-log
// slope 1.8), this one moves with it (slope 1.05). It leaves garbage
// behind; measure collects before a pass starts.
func (c *calibrator) sample() {
	t0 := time.Now()
	rng := rand.New(rand.NewPCG(3, 4))
	events := &calibHeap{}
	running := map[int]*calibJob{}
	var queue []*calibJob
	free, now, done := 64, 0.0, 0
	var start func()
	start = func() {
		for len(queue) > 0 && queue[0].procs <= free {
			j := queue[0]
			queue = queue[1:]
			free -= j.procs
			running[j.id] = j
			heap.Push(events, &calibEvent{now + j.dur, func() {
				delete(running, j.id)
				free += j.procs
				done++
				start()
			}})
		}
	}
	for i := 0; i < calibJobs; i++ {
		j := &calibJob{id: i, procs: 1 + rng.IntN(2), dur: 1 + 19*rng.Float64(), name: fmt.Sprintf("j%d", i)}
		heap.Push(events, &calibEvent{float64(i) * 0.5, func() { queue = append(queue, j); start() }})
	}
	for events.Len() > 0 {
		ev := heap.Pop(events).(*calibEvent)
		now = ev.at
		ev.fn()
	}
	if done != calibJobs {
		panic("bench: calibration kernel lost jobs") // a bug in the kernel itself
	}
	c.last = time.Now()
	c.ms = append(c.ms, ms(c.last.Sub(t0)))
}

// boundary times the kernel at the boundary between two passes and
// returns the sample's index, for factorSince. The sample that closed
// the previous pass serves if it is still fresh.
func (c *calibrator) boundary() int {
	if len(c.ms) == 0 || time.Since(c.last) > 10*time.Millisecond {
		c.sample()
	}
	return len(c.ms) - 1
}

// factorSince is what a time measured since sample index i (the
// boundary before it began) is multiplied by to express it at
// reference host speed: calibNominalMS over the mean kernel time of the
// samples bracketing and inside it.
func (c *calibrator) factorSince(i int) float64 {
	if m := mean(c.ms[i:]); m > 0 {
		return calibNominalMS / m
	}
	return 1
}

// factor is the whole run's factor, for figures that cannot be cut
// into passes (a child process's CPU time at exit).
func (c *calibrator) factor() float64 {
	if m := median(c.ms); m > 0 {
		return calibNominalMS / m
	}
	return 1
}
