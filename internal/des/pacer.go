// Wall-clock driver mode: a Pacer maps the simulator's virtual clock
// onto real time with a configurable dilation factor, so a long-running
// service can execute the same deterministic event stream as the batch
// engine while letting external clients interact with it in real time.
package des

import (
	"fmt"
	"time"
)

// Pacer converts between wall-clock time and virtual simulation time.
// Dilation is the number of virtual seconds that elapse per wall-clock
// second: 1 is real time, 60 compresses a minute of simulated work into
// a wall second, fractions slow the simulation down for demos.
//
// The mapping is anchored at construction: virtual time virtStart
// corresponds to the wall instant start.
type Pacer struct {
	dilation  float64
	start     time.Time
	virtStart float64
}

// NewPacer anchors a pacer: at wall instant start, virtual time is
// virtNow, and it advances at dilation virtual seconds per wall second.
func NewPacer(dilation float64, start time.Time, virtNow float64) (*Pacer, error) {
	if dilation <= 0 {
		return nil, fmt.Errorf("des: non-positive dilation %v", dilation)
	}
	return &Pacer{dilation: dilation, start: start, virtStart: virtNow}, nil
}

// VirtualNow returns the virtual time corresponding to the wall instant
// now. Instants before the anchor clamp to the anchor's virtual time
// (virtual clocks never run backwards).
func (p *Pacer) VirtualNow(now time.Time) float64 {
	elapsed := now.Sub(p.start).Seconds()
	if elapsed <= 0 {
		return p.virtStart
	}
	return p.virtStart + elapsed*p.dilation
}

// MaxSleep caps WallUntil: sleeping longer than this is pointless (the
// caller re-evaluates on wake) and, crucially, far-future virtual times
// would otherwise overflow time.Duration — the float→int64 conversion
// wraps negative and a timer armed with it fires immediately, turning
// the wait loop into a busy spin.
const MaxSleep = time.Hour

// WallUntil returns how long to sleep from the wall instant now until
// virtual time virt is reached, capped at MaxSleep. Already-passed
// virtual times return 0.
func (p *Pacer) WallUntil(virt float64, now time.Time) time.Duration {
	d := (virt - p.VirtualNow(now)) / p.dilation
	if d <= 0 {
		return 0
	}
	if d >= MaxSleep.Seconds() {
		return MaxSleep
	}
	return time.Duration(d * float64(time.Second))
}
