// Package clock abstracts time so that the same lease and consistency code
// can run against the wall clock (production) or a simulated clock
// (trace-driven simulation and deterministic tests).
//
// All lease mathematics in this repository is done with time.Time and
// time.Duration, per the style guides. The simulated clock represents trace
// time as an offset from a fixed epoch so traces with second-granularity
// timestamps map losslessly onto time.Time.
package clock

import (
	"sync"
	"sync/atomic"
	"time"
)

// Clock supplies the current time and timer facilities. Implementations must
// be safe for concurrent use.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Mono returns the time elapsed since a fixed origin of this clock's
	// choosing: never negative, never decreasing, and untouched by steps of
	// the wall clock. It is the reading a lease holder checks a deadline
	// against — a single clock read where Now samples two — and it is
	// comparable only with other Mono readings of the same clock.
	Mono() time.Duration
	// After returns a channel that delivers the then-current time once d has
	// elapsed. For simulated clocks the channel fires when the simulated time
	// passes Now()+d.
	After(d time.Duration) <-chan time.Time
	// Sleep blocks until d has elapsed.
	Sleep(d time.Duration)
}

// Real is a Clock backed by the system wall clock.
type Real struct{}

var _ Clock = Real{}

// realOrigin is the origin of Real.Mono. It carries a monotonic reading, so
// time.Since(realOrigin) never consults the wall clock.
var realOrigin = time.Now()

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Mono implements Clock.
func (Real) Mono() time.Duration { return time.Since(realOrigin) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// Offset is a Clock whose wall reading is displaced from its parent's: one
// node's wall clock, set wrong or stepped by an operator, over a timeline the
// node otherwise shares. Only Now is shifted; After, Sleep and Mono are the
// parent's, as a wall-clock step leaves a host's timers and monotonic clock
// alone.
type Offset struct {
	Clock
	by atomic.Int64 // time.Duration added to the parent's Now
}

// Step moves the wall reading by d from where it stands; negative is back.
func (o *Offset) Step(d time.Duration) { o.by.Add(int64(d)) }

// Now implements Clock.
func (o *Offset) Now() time.Time { return o.Clock.Now().Add(time.Duration(o.by.Load())) }

// Epoch is the zero point used by simulated clocks. Trace timestamps are
// interpreted as seconds since Epoch. The specific date is arbitrary but
// fixed so that simulation output is reproducible.
var Epoch = time.Date(1995, time.January, 1, 0, 0, 0, 0, time.UTC)

// At converts a trace timestamp, expressed in (possibly fractional) seconds
// since Epoch, to a time.Time.
func At(seconds float64) time.Time {
	return Epoch.Add(time.Duration(seconds * float64(time.Second)))
}

// Seconds converts a time.Time back to seconds since Epoch.
func Seconds(t time.Time) float64 {
	return t.Sub(Epoch).Seconds()
}

// Simulated is a manually advanced Clock for deterministic tests and
// trace-driven simulation. The zero value is ready to use and starts at
// Epoch.
type Simulated struct {
	mu      sync.Mutex
	now     time.Time
	origin  time.Time // where the clock started: Mono's zero
	waiters []*waiter
}

type waiter struct {
	deadline time.Time
	ch       chan time.Time
}

var _ Clock = (*Simulated)(nil)

// NewSimulated returns a simulated clock positioned at start. A zero start
// positions the clock at Epoch.
func NewSimulated(start time.Time) *Simulated {
	if start.IsZero() {
		start = Epoch
	}
	return &Simulated{now: start, origin: start}
}

// begin positions a zero-value clock at Epoch. It must be called with mu
// held, before now is read.
func (s *Simulated) begin() {
	if s.now.IsZero() {
		s.now, s.origin = Epoch, Epoch
	}
}

// Now implements Clock.
func (s *Simulated) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.begin()
	return s.now
}

// Mono implements Clock: the simulated time elapsed since the clock's start.
// The clock only moves forward, so this is Now on a different origin.
func (s *Simulated) Mono() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.begin()
	return s.now.Sub(s.origin)
}

// After implements Clock. The returned channel has capacity one, so the
// advancing goroutine never blocks delivering the tick.
func (s *Simulated) After(d time.Duration) <-chan time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.begin()
	ch := make(chan time.Time, 1)
	deadline := s.now.Add(d)
	if d <= 0 {
		ch <- s.now
		return ch
	}
	s.waiters = append(s.waiters, &waiter{deadline: deadline, ch: ch})
	return ch
}

// Sleep implements Clock. It blocks until another goroutine advances the
// clock past the deadline. Sleeping on a simulated clock that nobody
// advances blocks forever; simulation code advances the clock from the
// event loop.
func (s *Simulated) Sleep(d time.Duration) {
	<-s.After(d)
}

// Advance moves the clock forward by d and fires any timers whose deadline
// has been reached.
func (s *Simulated) Advance(d time.Duration) {
	s.mu.Lock()
	s.begin()
	s.set(s.now.Add(d))
	s.mu.Unlock()
}

// AdvanceTo moves the clock forward to t (no-op if t is in the past) and
// fires any timers whose deadline has been reached.
func (s *Simulated) AdvanceTo(t time.Time) {
	s.mu.Lock()
	s.begin()
	s.set(t)
	s.mu.Unlock()
}

// set must be called with mu held.
func (s *Simulated) set(t time.Time) {
	if t.After(s.now) {
		s.now = t
	}
	remaining := s.waiters[:0]
	for _, w := range s.waiters {
		if !w.deadline.After(s.now) {
			w.ch <- s.now
		} else {
			remaining = append(remaining, w)
		}
	}
	s.waiters = remaining
}

// NextDeadline reports the earliest pending timer deadline and whether one
// exists. Simulation drivers use it to advance time event-to-event.
func (s *Simulated) NextDeadline() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var (
		best time.Time
		ok   bool
	)
	for _, w := range s.waiters {
		if !ok || w.deadline.Before(best) {
			best, ok = w.deadline, true
		}
	}
	return best, ok
}
