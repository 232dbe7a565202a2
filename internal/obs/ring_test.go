package obs

import (
	"sync"
	"testing"
	"time"
)

// TestRing covers the one ring once: partial fill, wrap-around,
// oldest-first order and Total.
func TestRing(t *testing.T) {
	r := NewRingSink(4)
	if got := r.Snapshot(); len(got) != 0 || r.Total() != 0 {
		t.Fatalf("empty ring: Snapshot %v, Total %d", got, r.Total())
	}
	for added := 1; added <= 11; added++ {
		r.Observe(Event{N: added})
		got := r.Snapshot()
		wantLen, oldest := added, 1
		if added > 4 {
			wantLen, oldest = 4, added-3
		}
		if len(got) != wantLen {
			t.Fatalf("after %d adds: %d retained, want %d", added, len(got), wantLen)
		}
		for i, e := range got {
			if e.N != oldest+i {
				t.Fatalf("after %d adds: Snapshot = %v, want oldest first from %d", added, got, oldest)
			}
		}
		if r.Total() != uint64(added) {
			t.Fatalf("after %d adds: Total = %d", added, r.Total())
		}
	}
	if got := NewRingSink(0); len(got.slots) != 1 {
		t.Errorf("NewRingSink(0) has %d slots, want the minimum of 1", len(got.slots))
	}
}

// TestRingConcurrent observes from eight goroutines while snapshotting;
// under -race it pins the lock-free Observe, and every snapshot holds only
// whole events that were really observed.
func TestRingConcurrent(t *testing.T) {
	r := NewRingSink(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Observe(Event{N: g, Dur: time.Duration(-g)})
				for _, e := range r.Snapshot() {
					if e.N != -int(e.Dur) || e.N < 0 || e.N >= 8 {
						t.Errorf("torn or foreign event %+v", e)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if r.Total() != 4000 || len(r.Snapshot()) != 16 {
		t.Errorf("Total = %d, retained %d; want 4000 and 16", r.Total(), len(r.Snapshot()))
	}
}
