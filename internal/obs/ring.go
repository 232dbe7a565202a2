package obs

import "sync/atomic"

// RingSink retains the most recent events in a fixed number of slots — the
// one ring behind the event trace that /debug/events and flight dumps read.
// Tests use it to inspect recent protocol history without unbounded growth.
// Each slot is an atomic pointer and the cursor an atomic counter, so any
// number of goroutines observe without a mutex; an Observe costs one
// allocation plus two atomic operations.
type RingSink struct {
	slots []atomic.Pointer[Event]
	next  atomic.Uint64
}

// NewRingSink returns a ring retaining up to n events (min 1).
func NewRingSink(n int) *RingSink {
	if n < 1 {
		n = 1
	}
	return &RingSink{slots: make([]atomic.Pointer[Event], n)}
}

// Observe implements Sink: it stores e, overwriting the oldest event once
// the ring is full.
func (r *RingSink) Observe(e Event) {
	idx := r.next.Add(1) - 1
	r.slots[idx%uint64(len(r.slots))].Store(&e)
}

// Total reports how many events were ever observed (including overwritten).
func (r *RingSink) Total() uint64 { return r.next.Load() }

// Snapshot returns the retained events, oldest first. Events may land
// mid-snapshot; each slot is read atomically, so every returned event is
// internally consistent.
func (r *RingSink) Snapshot() []Event {
	n := uint64(len(r.slots))
	start := uint64(0)
	if next := r.next.Load(); next > n {
		start = next % n // the oldest retained slot
	}
	out := make([]Event, 0, n)
	for i := uint64(0); i < n; i++ {
		if p := r.slots[(start+i)%n].Load(); p != nil {
			out = append(out, *p)
		}
	}
	return out
}
