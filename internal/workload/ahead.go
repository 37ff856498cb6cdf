package workload

// Ahead runs a producer ahead of its consumer on a second goroutine, so
// that producing overlaps consuming instead of running in series with
// it. One producer goroutine lives for the whole stream. It fills a ring
// of k buffers of n = max(size/4, 1) items, k = 2·size/n (8 × 256 for
// size 1024, 2 × 1 for size 1), and hands each filled buffer over; Next
// gives a buffer back when it needs the next one, so at most 2·size
// items are ever produced and not yet taken. The first fill is 1/32 of a
// buffer (at least one item) and each later fill doubles up to a whole
// buffer: the first item waits for a few produce calls, not for a whole
// batch. A hand-off orders every produce call before it ahead of
// whatever the consumer does after the Next that takes it. Only one
// goroutine calls produce, and none once Next has reported the end or
// Stop has returned.
type Ahead[T any] struct {
	batch []T // the buffer being consumed; taken slots are zeroed
	next  int
	full  chan aheadFill[T] // filled buffers, in order; capacity k, so sends never block
	free  chan []T          // emptied buffers, back to the producer; capacity k; Stop closes it
	done  chan struct{}     // closed when the producer has returned
	ended bool              // Next took the last fill, or Stop returned
	// panicked is the value of a panic in produce, once the fill it
	// ended is taken.
	panicked any
}

// aheadFill is one filled buffer. end is set when produce reported the
// end or panicked inside it.
type aheadFill[T any] struct {
	items    []T
	end      bool
	panicked any
}

// NewAhead starts calling produce until it reports false or panics. The
// caller must call Stop unless Next has reported the end.
func NewAhead[T any](produce func() (T, bool), size int) *Ahead[T] {
	n := max(size/4, 1)
	k := 2 * size / n
	// One array holds every buffer; the three-index slices keep each
	// fill in its own.
	buf := make([]T, k*n)
	a := &Ahead[T]{full: make(chan aheadFill[T], k), free: make(chan []T, k), done: make(chan struct{})}
	for i := 0; i < k; i++ {
		a.free <- buf[i*n : i*n : (i+1)*n]
	}
	go a.run(produce, max(n/32, 1), n)
	return a
}

// run fills buffers of first, 2·first, … up to n items until produce
// reports the end or panics, or Stop has closed free and every buffer
// given back before is filled. A panic in produce ends the fill; Next
// raises it again on the consumer's goroutine, at the position where it
// happened, so that a caller containing panics can still recover it.
func (a *Ahead[T]) run(produce func() (T, bool), first, n int) {
	defer close(a.done)
	var f aheadFill[T]
	defer func() {
		if f.panicked = recover(); f.panicked != nil {
			f.end = true
		}
		if f.end {
			a.full <- f
		}
	}()
	fill := first
	for f.items = range a.free {
		for len(f.items) < fill {
			v, ok := produce()
			if !ok {
				f.end = true
				return
			}
			f.items = append(f.items, v)
		}
		a.full <- f
		fill = min(2*fill, n)
	}
}

// Next returns the next item. After the last one it reports false, or
// raises again the panic that ended production.
func (a *Ahead[T]) Next() (T, bool) {
	var zero T
	for a.next == len(a.batch) {
		if a.ended {
			if a.panicked != nil {
				panic(a.panicked)
			}
			return zero, false
		}
		if a.batch != nil {
			a.free <- a.batch[:0]
		}
		f := <-a.full
		a.batch, a.next = f.items, 0
		a.ended, a.panicked = f.end, f.panicked
	}
	v := a.batch[a.next]
	a.batch[a.next] = zero
	a.next++
	return v, true
}

// Stop lets the producer fill the buffers Next gave back, so that how
// many items were produced depends only on how many were taken, then
// waits for it to return and drops what is left.
func (a *Ahead[T]) Stop() {
	if a.free != nil {
		close(a.free)
		<-a.done
		a.free = nil
	}
	a.batch, a.next, a.ended = nil, 0, true
}
