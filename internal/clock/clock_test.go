package clock

import (
	"sync"
	"testing"
	"time"
)

func TestRealNow(t *testing.T) {
	var c Clock = Real{}
	a := c.Now()
	b := c.Now()
	if b.Before(a) {
		t.Fatalf("real clock went backwards: %v then %v", a, b)
	}
}

func TestRealAfter(t *testing.T) {
	c := Real{}
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(5 * time.Second):
		t.Fatal("Real.After never fired")
	}
}

func TestAtSecondsRoundTrip(t *testing.T) {
	cases := []float64{0, 1, 0.5, 12345.25, 1e7}
	for _, s := range cases {
		got := Seconds(At(s))
		if diff := got - s; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("round trip %v -> %v", s, got)
		}
	}
}

func TestAtEpoch(t *testing.T) {
	if !At(0).Equal(Epoch) {
		t.Fatalf("At(0) = %v, want Epoch %v", At(0), Epoch)
	}
}

func TestSimulatedZeroValueStartsAtEpoch(t *testing.T) {
	var s Simulated
	if !s.Now().Equal(Epoch) {
		t.Fatalf("zero Simulated.Now() = %v, want %v", s.Now(), Epoch)
	}
}

func TestNewSimulatedZeroStart(t *testing.T) {
	s := NewSimulated(time.Time{})
	if !s.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want Epoch", s.Now())
	}
}

func TestSimulatedAdvance(t *testing.T) {
	s := NewSimulated(Epoch)
	s.Advance(10 * time.Second)
	if got := Seconds(s.Now()); got != 10 {
		t.Fatalf("after Advance(10s), Seconds(Now()) = %v, want 10", got)
	}
}

func TestSimulatedAdvanceToBackwardsIsNoop(t *testing.T) {
	s := NewSimulated(Epoch.Add(time.Hour))
	s.AdvanceTo(Epoch)
	if !s.Now().Equal(Epoch.Add(time.Hour)) {
		t.Fatalf("AdvanceTo moved the clock backwards to %v", s.Now())
	}
}

func TestSimulatedAfterFiresOnAdvance(t *testing.T) {
	s := NewSimulated(Epoch)
	ch := s.After(5 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired before clock advanced")
	default:
	}
	s.Advance(4 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired early at +4s")
	default:
	}
	s.Advance(time.Second)
	select {
	case tm := <-ch:
		if got := Seconds(tm); got != 5 {
			t.Fatalf("timer delivered time %v, want 5s", got)
		}
	default:
		t.Fatal("timer did not fire at deadline")
	}
}

func TestSimulatedAfterNonPositiveFiresImmediately(t *testing.T) {
	s := NewSimulated(Epoch)
	for _, d := range []time.Duration{0, -time.Second} {
		select {
		case <-s.After(d):
		default:
			t.Fatalf("After(%v) did not fire immediately", d)
		}
	}
}

func TestSimulatedSleepUnblocksOnAdvance(t *testing.T) {
	s := NewSimulated(Epoch)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Sleep(3 * time.Second)
		close(done)
	}()
	// Wait for the sleeper to register its timer.
	for {
		if _, ok := s.NextDeadline(); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.Advance(3 * time.Second)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Sleep never unblocked")
	}
	wg.Wait()
}

func TestSimulatedNextDeadline(t *testing.T) {
	s := NewSimulated(Epoch)
	if _, ok := s.NextDeadline(); ok {
		t.Fatal("NextDeadline reported a deadline with no waiters")
	}
	s.After(10 * time.Second)
	s.After(3 * time.Second)
	s.After(7 * time.Second)
	dl, ok := s.NextDeadline()
	if !ok {
		t.Fatal("NextDeadline found nothing")
	}
	if got := Seconds(dl); got != 3 {
		t.Fatalf("NextDeadline = %vs, want 3s", got)
	}
}

func TestSimulatedManyWaitersFireInOneAdvance(t *testing.T) {
	s := NewSimulated(Epoch)
	var chans []<-chan time.Time
	for i := 1; i <= 10; i++ {
		chans = append(chans, s.After(time.Duration(i)*time.Second))
	}
	s.Advance(10 * time.Second)
	for i, ch := range chans {
		select {
		case <-ch:
		default:
			t.Fatalf("waiter %d did not fire", i)
		}
	}
	if _, ok := s.NextDeadline(); ok {
		t.Fatal("waiters remain after all fired")
	}
}

func TestSimulatedConcurrentAdvanceAndAfter(t *testing.T) {
	s := NewSimulated(Epoch)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.After(time.Duration(j) * time.Millisecond)
			}
		}()
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.Advance(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	// All timers are now in the past; every remaining waiter must fire on the
	// next advance.
	s.Advance(time.Second)
	if _, ok := s.NextDeadline(); ok {
		t.Fatal("stale waiters survived a large advance")
	}
}

func TestSimulatedMonoFollowsAdvance(t *testing.T) {
	// Started well before Epoch: Mono counts from the clock's own start, so
	// it is never negative.
	s := NewSimulated(time.Unix(1000, 0))
	if got := s.Mono(); got != 0 {
		t.Fatalf("Mono() at start = %v, want 0", got)
	}
	s.Advance(3 * time.Second)
	s.AdvanceTo(time.Unix(1010, 0))
	s.AdvanceTo(time.Unix(1005, 0)) // backwards: no-op
	if got := s.Mono(); got != 10*time.Second {
		t.Fatalf("Mono() = %v after advancing 10s, want 10s", got)
	}

	var z Simulated
	if got := z.Mono(); got != 0 {
		t.Fatalf("zero Simulated.Mono() = %v, want 0", got)
	}
	z.AdvanceTo(Epoch.Add(time.Minute))
	if got := z.Mono(); got != time.Minute {
		t.Fatalf("zero Simulated.Mono() after AdvanceTo(Epoch+1m) = %v, want 1m", got)
	}
}

func TestRealMonoNeverDecreases(t *testing.T) {
	var c Clock = Real{}
	last := c.Mono()
	if last < 0 {
		t.Fatalf("Real.Mono() = %v, want >= 0", last)
	}
	for i := 0; i < 1e5; i++ {
		m := c.Mono()
		if m < last {
			t.Fatalf("Real.Mono went backwards: %v then %v", last, m)
		}
		last = m
	}
	time.Sleep(2 * time.Millisecond)
	if m := c.Mono(); m-last < 2*time.Millisecond {
		t.Fatalf("Real.Mono advanced %v across a 2ms sleep", m-last)
	}
}

func TestOffsetShiftsOnlyNow(t *testing.T) {
	s := NewSimulated(Epoch)
	o := &Offset{Clock: s}
	o.Step(-time.Hour)
	o.Step(10 * time.Minute)
	if want := Epoch.Add(-50 * time.Minute); !o.Now().Equal(want) {
		t.Fatalf("Offset.Now() = %v, want %v", o.Now(), want)
	}
	ch := o.After(5 * time.Second)
	s.Advance(5 * time.Second)
	select {
	case <-ch:
	default:
		t.Fatal("Offset.After did not fire with the parent's timeline")
	}
	if got := o.Mono(); got != 5*time.Second {
		t.Fatalf("Offset.Mono() = %v, want the parent's 5s", got)
	}
	if want := Epoch.Add(-50*time.Minute + 5*time.Second); !o.Now().Equal(want) {
		t.Fatalf("Offset.Now() = %v after Advance, want %v", o.Now(), want)
	}
}

var (
	sinkTime time.Time
	sinkMono time.Duration
)

// BenchmarkClockNow and BenchmarkClockMono record what a lease holder saves
// by checking deadlines against Mono: Real.Now samples the wall and the
// monotonic clock, Real.Mono the monotonic clock alone — about 2 : 1.
func BenchmarkClockNow(b *testing.B) {
	var c Clock = Real{}
	for i := 0; i < b.N; i++ {
		sinkTime = c.Now()
	}
}

func BenchmarkClockMono(b *testing.B) {
	var c Clock = Real{}
	for i := 0; i < b.N; i++ {
		sinkMono = c.Mono()
	}
}
