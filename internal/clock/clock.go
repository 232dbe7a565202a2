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
	"slices"
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
	// NewTimer returns a timer that delivers the then-current time on its
	// channel once d has elapsed. Unlike After's, it can be stopped: a wait
	// that a reply or an ack can end early stops its timer, so the wait
	// leaves nothing pending once it is over.
	NewTimer(d time.Duration) Timer
	// AfterFunc calls f once d has elapsed, on a goroutine of its own for
	// Real and on the goroutine that advances a simulated clock past the
	// deadline, and returns a timer (its C is nil) whose Stop cancels the
	// call. f must not assume any lock of its caller: a state that ends
	// either on an event or at a deadline arms one under its lock, and f
	// takes the lock again to see whether the event came first.
	AfterFunc(d time.Duration, f func()) Timer
	// Sleep blocks until d has elapsed.
	Sleep(d time.Duration)
}

// Timer is a one-shot timer made by Clock.NewTimer. After Stop or Reset
// returns, its channel delivers no tick from before the call.
type Timer interface {
	// C returns the channel the tick is delivered on.
	C() <-chan time.Time
	// Stop cancels the timer; stopping a stopped or fired timer does nothing.
	Stop()
	// Reset re-arms the timer to fire d from now, stopping it first.
	Reset(d time.Duration)
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

// NewTimer implements Clock. go.mod's go line (1.23 or later) gives the
// time.Timer the synchronous channel that makes Stop and Reset discard a
// stale tick.
func (Real) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) Timer { return realTimer{time.AfterFunc(d, f)} }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// realTimer is Real's Timer.
type realTimer struct{ t *time.Timer }

func (r realTimer) C() <-chan time.Time   { return r.t.C }
func (r realTimer) Stop()                 { r.t.Stop() }
func (r realTimer) Reset(d time.Duration) { r.t.Reset(d) }

// Offset is a Clock whose wall reading is displaced from its parent's: one
// node's wall clock, set wrong or stepped by an operator, over a timeline the
// node otherwise shares. Only Now is shifted; After, Sleep and Mono are the
// parent's, as a wall-clock step leaves a host's timers and monotonic clock
// alone; so are NewTimer and AfterFunc.
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

// waiter is Simulated's Timer. It is in the clock's waiters list while
// armed. It either delivers on ch (NewTimer) or calls f (AfterFunc); due
// marks an AfterFunc timer that has fired and not been called yet.
type waiter struct {
	s        *Simulated
	deadline time.Time
	ch       chan time.Time
	f        func()
	due      bool
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

// After implements Clock.
func (s *Simulated) After(d time.Duration) <-chan time.Time {
	return s.NewTimer(d).C()
}

// NewTimer implements Clock. The timer's channel has capacity one, so the
// advancing goroutine never blocks delivering the tick.
func (s *Simulated) NewTimer(d time.Duration) Timer {
	w := &waiter{s: s, ch: make(chan time.Time, 1)}
	w.Reset(d)
	return w
}

// AfterFunc implements Clock. Advance and AdvanceTo call f after they have
// released the clock, in deadline order, so f may read the clock and stop or
// arm timers; one stopped by an earlier function of the same step is not
// called. A non-positive d calls f on a goroutine of its own, as
// time.AfterFunc does: Reset may run under its caller's lock, which f takes.
func (s *Simulated) AfterFunc(d time.Duration, f func()) Timer {
	w := &waiter{s: s, f: f}
	w.Reset(d)
	return w
}

// C implements Timer.
func (w *waiter) C() <-chan time.Time { return w.ch }

// Stop implements Timer: the waiter leaves the clock's list, so
// NextDeadline no longer reports it.
func (w *waiter) Stop() {
	w.s.mu.Lock()
	w.stop()
	w.s.mu.Unlock()
}

// Reset implements Timer.
func (w *waiter) Reset(d time.Duration) {
	s := w.s
	s.mu.Lock()
	defer s.mu.Unlock()
	s.begin()
	w.stop()
	w.deadline = s.now.Add(d)
	switch {
	case d > 0:
	case w.f != nil:
		go w.f()
		return
	default:
		w.ch <- s.now
		return
	}
	s.waiters = append(s.waiters, w)
}

// stop disarms w and discards a tick it delivered that nobody received, or
// a call still due. It must be called with s.mu held.
func (w *waiter) stop() {
	w.due = false
	if i := slices.Index(w.s.waiters, w); i >= 0 {
		w.s.waiters = slices.Delete(w.s.waiters, i, i+1)
	}
	select {
	case <-w.ch:
	default:
	}
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
	fired := s.set(s.now.Add(d))
	s.mu.Unlock()
	s.fire(fired)
}

// AdvanceTo moves the clock forward to t (no-op if t is in the past) and
// fires any timers whose deadline has been reached.
func (s *Simulated) AdvanceTo(t time.Time) {
	s.mu.Lock()
	s.begin()
	fired := s.set(t)
	s.mu.Unlock()
	s.fire(fired)
}

// set must be called with mu held. It delivers the ticks of the channel
// timers that are due and returns the AfterFunc timers that are, for the
// caller to call once mu is released.
func (s *Simulated) set(t time.Time) (fired []*waiter) {
	if t.After(s.now) {
		s.now = t
	}
	remaining := s.waiters[:0]
	for _, w := range s.waiters {
		switch {
		case w.deadline.After(s.now):
			remaining = append(remaining, w)
		case w.f != nil:
			w.due = true
			fired = append(fired, w)
		default:
			w.ch <- s.now
		}
	}
	clear(s.waiters[len(remaining):])
	s.waiters = remaining
	return fired
}

// fire calls the functions of the AfterFunc timers set returned, earliest
// deadline first, each unless it was stopped or re-armed since. It must be
// called without mu held.
func (s *Simulated) fire(fired []*waiter) {
	slices.SortStableFunc(fired, func(a, b *waiter) int { return a.deadline.Compare(b.deadline) })
	for _, w := range fired {
		s.mu.Lock()
		due := w.due
		w.due = false
		s.mu.Unlock()
		if due {
			w.f()
		}
	}
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
