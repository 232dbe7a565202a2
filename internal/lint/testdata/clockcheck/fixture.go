package fixture

import (
	"time"

	"repro/internal/clock"
)

// bad samples the wall clock directly.
func bad() {
	now := time.Now()             // want `time\.Now reads the system clock`
	time.Sleep(time.Second)       // want `time\.Sleep reads the system clock`
	ch := time.After(time.Minute) // want `time\.After reads the system clock`
	d := time.Since(now)          // want `time\.Since reads the system clock`
	_, _ = ch, d
}

// lease is a holder-side deadline check as internal/client must not write
// it: time.Since and time.Until cost one monotonic reading, which is the
// price Clock.Mono has, but they read the system's clock and not the
// injected one.
type lease struct {
	anchored time.Time
	term     time.Duration
	until    time.Duration
}

func (l lease) validSince() bool {
	return time.Since(l.anchored) < l.term // want `time\.Since reads the system clock; use the injected clock\.Clock \(Clock\.Mono for a deadline check`
}

func (l lease) validUntil() bool {
	return time.Until(l.anchored.Add(l.term)) > 0 // want `time\.Until reads the system clock; use the injected clock\.Clock \(Clock\.Mono for a deadline check`
}

// validMono is the sanctioned form: one reading of the injected monotonic
// clock against a deadline on the same timeline.
func (l lease) validMono(clk clock.Clock) bool {
	return l.until > clk.Mono()
}

// good uses the injected clock; durations and types from package time are
// not wall-clock reads.
func good(clk clock.Clock) (time.Time, time.Duration) {
	timeout := 5 * time.Second
	deadline := clk.Now().Add(timeout)
	return deadline, timeout
}

// allowed demonstrates the escape hatch: a process-lifetime stamp that is
// never compared against lease expiries.
func allowed() time.Time {
	//lint:allow clockcheck — process start stamp, not lease math
	return time.Now()
}

// allowedTrailing exercises the same-line form.
func allowedTrailing() time.Time {
	return time.Now() //lint:allow clockcheck — same-line suppression
}
