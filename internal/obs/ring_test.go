package obs

import (
	"sync"
	"testing"
)

// TestRing covers the one ring once, for every type that wraps it (RingSink,
// SpanRecorder, health.FlightRecorder, cost.Profiler): partial fill,
// wrap-around, oldest-first order and Total.
func TestRing(t *testing.T) {
	r := NewRing[int](4)
	if got := r.Snapshot(); len(got) != 0 || r.Total() != 0 {
		t.Fatalf("empty ring: Snapshot %v, Total %d", got, r.Total())
	}
	for added := 1; added <= 11; added++ {
		r.Add(added)
		got := r.Snapshot()
		wantLen, oldest := added, 1
		if added > 4 {
			wantLen, oldest = 4, added-3
		}
		if len(got) != wantLen {
			t.Fatalf("after %d adds: %d retained, want %d", added, len(got), wantLen)
		}
		for i, v := range got {
			if v != oldest+i {
				t.Fatalf("after %d adds: Snapshot = %v, want oldest first from %d", added, got, oldest)
			}
		}
		if r.Total() != uint64(added) {
			t.Fatalf("after %d adds: Total = %d", added, r.Total())
		}
	}
	if got := NewRing[int](0); len(got.slots) != 1 {
		t.Errorf("NewRing(0) has %d slots, want the minimum of 1", len(got.slots))
	}
}

// TestRingConcurrent adds from eight goroutines while snapshotting; under
// -race it pins the lock-free Add, and every snapshot holds only whole
// values that were really added.
func TestRingConcurrent(t *testing.T) {
	type pair struct{ a, b int }
	r := NewRing[pair](16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Add(pair{g, -g})
				for _, p := range r.Snapshot() {
					if p.a != -p.b || p.a < 0 || p.a >= 8 {
						t.Errorf("torn or foreign value %+v", p)
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
