package obs

import "sync/atomic"

// Ring retains the most recent values in a fixed number of slots — the one
// ring behind the event trace that /debug/events and flight dumps read.
// Each slot is an atomic pointer and the cursor an atomic counter, so any
// number of goroutines add without a mutex; an Add costs one allocation plus
// two atomic operations.
type Ring[T any] struct {
	slots []atomic.Pointer[T]
	next  atomic.Uint64
}

// NewRing returns a ring retaining up to n values (min 1).
func NewRing[T any](n int) *Ring[T] {
	if n < 1 {
		n = 1
	}
	return &Ring[T]{slots: make([]atomic.Pointer[T], n)}
}

// Add stores v, overwriting the oldest value once the ring is full.
func (r *Ring[T]) Add(v T) {
	idx := r.next.Add(1) - 1
	r.slots[idx%uint64(len(r.slots))].Store(&v)
}

// Total reports how many values were ever added (including overwritten).
func (r *Ring[T]) Total() uint64 { return r.next.Load() }

// Snapshot returns the retained values, oldest first. Adds may land
// mid-snapshot; each slot is read atomically, so every returned value is
// internally consistent.
func (r *Ring[T]) Snapshot() []T {
	n := uint64(len(r.slots))
	start := uint64(0)
	if next := r.next.Load(); next > n {
		start = next % n // the oldest retained slot
	}
	out := make([]T, 0, n)
	for i := uint64(0); i < n; i++ {
		if p := r.slots[(start+i)%n].Load(); p != nil {
			out = append(out, *p)
		}
	}
	return out
}
