package workload

// Ahead runs a producer one batch ahead of its consumer on a second
// goroutine, so that producing overlaps consuming instead of running in
// series with it. At most one fill is in flight: the consumer starts the
// next one when it takes a finished batch from the channel, which orders
// every produce call of one fill before every call of the next and
// before whatever the consumer does after Next. Only one goroutine calls
// produce at a time, and none once Next has reported the end or Stop has
// returned.
type Ahead[T any] struct {
	produce func() (T, bool)
	batch   []T // the batch being consumed; taken slots are zeroed
	next    int
	fills   chan aheadFill[T] // capacity 1: a fill sends its batch and exits
	filling bool              // a fill is in flight
	// panicked is the value of a panic in produce, once the batch it
	// ended is taken.
	panicked any
}

// aheadFill is one finished batch. end is set when produce reported the
// end or panicked inside it.
type aheadFill[T any] struct {
	items    []T
	end      bool
	panicked any
}

// NewAhead starts calling produce, size items per fill, until it reports
// false or panics. The caller must call Stop unless Next has reported
// the end.
func NewAhead[T any](produce func() (T, bool), size int) *Ahead[T] {
	// One array holds both batches: the one being consumed and the one
	// being filled. The three-index slices keep each fill in its half.
	buf := make([]T, 2*size)
	a := &Ahead[T]{produce: produce, batch: buf[size:size:len(buf)], fills: make(chan aheadFill[T], 1)}
	a.fill(buf[:0:size])
	return a
}

// fill produces up to cap(buf) items into buf on a new goroutine. A
// panic in produce ends the batch; Next raises it again on the
// consumer's goroutine, at the position where it happened, so that a
// caller containing panics can still recover it.
func (a *Ahead[T]) fill(buf []T) {
	a.filling = true
	go func(produce func() (T, bool), fills chan<- aheadFill[T]) {
		f := aheadFill[T]{items: buf}
		defer func() {
			if f.panicked = recover(); f.panicked != nil {
				f.end = true
			}
			fills <- f
		}()
		for len(f.items) < cap(f.items) {
			v, ok := produce()
			if !ok {
				f.end = true
				return
			}
			f.items = append(f.items, v)
		}
	}(a.produce, a.fills)
}

// Next returns the next item. After the last one it reports false, or
// raises again the panic that ended production.
func (a *Ahead[T]) Next() (T, bool) {
	var zero T
	for a.next == len(a.batch) {
		if !a.filling {
			if a.panicked != nil {
				panic(a.panicked)
			}
			return zero, false
		}
		f := <-a.fills
		a.filling = false
		spare := a.batch[:0]
		a.batch, a.next = f.items, 0
		if f.end {
			a.panicked = f.panicked
		} else {
			a.fill(spare)
		}
	}
	v := a.batch[a.next]
	a.batch[a.next] = zero
	a.next++
	return v, true
}

// Stop waits for the fill in flight, if any, and drops what is left.
func (a *Ahead[T]) Stop() {
	if a.filling {
		<-a.fills
		a.filling = false
	}
	a.batch, a.next = nil, 0
}
