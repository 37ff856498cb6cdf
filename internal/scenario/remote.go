package scenario

import (
	"context"
	"time"
)

// CellRunner executes one remoteable cell of a running Spec somewhere
// other than the local worker pool — the seam the distributed fleet
// coordinator plugs into RunOptions.Remote. A remoteable cell is a
// fan-out unit whose entire product is typed table rows (ints, floats,
// strings, bools): it can execute in another process and ship its rows
// back without losing anything the table renderer needs.
//
// fanout is the ordinal of the fan-out within the run, as numbered by
// RunOptions.NextFanout, and cell the index within it; the pair
// identifies the unit of work on both sides of the wire. The returned
// duration is the executing side's wall-clock measurement.
//
// Determinism contract: RunCell must return exactly the rows — same
// values, same Go types — that executing the cell locally would have
// produced. The engine reassembles results in cell-index order, so the
// rendered table is byte-identical to a single-process run regardless
// of how many workers executed cells, in what order they finished, or
// how often a cell was retried.
type CellRunner interface {
	RunCell(ctx context.Context, fanout, cell int) (rows [][]any, d time.Duration, err error)
}

// NextFanout assigns the next remoteable fan-out ordinal of the run.
// Run gives every run a fresh counter, and kind runners perform their
// remoteable fan-outs sequentially (nested fan-outs consume no
// ordinal), so for a fixed spec the numbering is deterministic: it is
// the coordinate system coordinator and workers share. Options that did
// not come through Run carry no counter and panic here rather than
// label every fan-out 0.
func (o RunOptions) NextFanout() int {
	if o.fanouts == nil {
		panic("scenario: NextFanout on RunOptions not issued by Run")
	}
	return int(o.fanouts.Add(1)) - 1
}
