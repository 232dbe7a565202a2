package client

import (
	"testing"
	"time"
)

func TestRedialBackoffJitterBounds(t *testing.T) {
	const initial, cap = 10 * time.Millisecond, time.Second
	bo := newRedialBackoff(initial, cap, "c1", 1)
	nominal := initial
	for i := 0; i < 12; i++ {
		d := bo.next()
		lo, hi := nominal/2, nominal+nominal/2
		if d < lo || d >= hi {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", i, d, lo, hi)
		}
		if nominal < cap {
			nominal *= 2
			if nominal > cap {
				nominal = cap
			}
		}
	}
	if nominal != cap {
		t.Fatalf("nominal delay %v never reached the cap %v", nominal, cap)
	}
}

func TestRedialBackoffConfigurableCap(t *testing.T) {
	const capped = 80 * time.Millisecond
	bo := newRedialBackoff(10*time.Millisecond, capped, "c1", 1)
	for i := 0; i < 20; i++ {
		if d := bo.next(); d >= capped+capped/2 {
			t.Fatalf("attempt %d: delay %v exceeds jittered cap %v", i, d, capped+capped/2)
		}
	}
}

// TestRedialBackoffSchedulesDiverge is the thundering-herd regression: two
// clients disconnected by the same server restart must not retry on
// identical schedules. Without jitter every delay was deterministic
// (10ms, 20ms, 40ms, ...) and this test fails.
func TestRedialBackoffSchedulesDiverge(t *testing.T) {
	// Identical seeds on purpose: the ID hash alone must decorrelate the
	// schedules (a fleet restarted by one supervisor can share a seed).
	a := newRedialBackoff(10*time.Millisecond, time.Second, "client-a", 7)
	b := newRedialBackoff(10*time.Millisecond, time.Second, "client-b", 7)
	identical := true
	for i := 0; i < 8; i++ {
		if a.next() != b.next() {
			identical = false
		}
	}
	if identical {
		t.Fatal("two clients produced identical redial schedules; jitter is not spreading them")
	}
}
