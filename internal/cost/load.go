package cost

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/wire"
)

// The per-second load timeline is the live form of the paper's Figures 8–9:
// the cost of server-driven consistency shows up as per-second message bursts
// after writes, not as averages. It counts no frame itself. Once a second,
// sample reads the cumulative per-kind counters record already keeps and
// files the difference under the second that just closed, so the frame path
// reads no clock and takes no lock for it.

// Window is how many seconds of per-second history an Accounting keeps.
const Window = 300

// Second is one second of the timeline.
type Second struct {
	Unix int64 `json:"unix"`
	// Msgs counts every wire message the node sent or received that second.
	Msgs int64 `json:"msgs"`
	// ByKind breaks Msgs down by wire kind (nonzero entries only).
	ByKind map[string]int64 `json:"by_kind,omitempty"`
}

// Burst summarizes a trailing window. The paper's argument is that Peak
// dwarfs Mean: most seconds are idle, then a write to a popular object lights
// up every connection at once.
type Burst struct {
	WindowSeconds int   `json:"window_seconds"`
	Peak          int64 `json:"peak_mps"`
	PeakUnix      int64 `json:"peak_unix,omitempty"`
	// Mean averages over every second of the window, idle ones included.
	Mean        float64 `json:"mean_mps"`
	BusySeconds int     `json:"busy_seconds"`
	IdleSeconds int     `json:"idle_seconds"`
	// Ratio is Peak/Mean (0 when the window is empty): the burst factor.
	Ratio float64 `json:"peak_to_mean"`
}

// slot is one ring entry: the frames of second unix, per kind.
type slot struct {
	unix   int64
	byKind [wire.NumKinds]int64
}

// second renders the slot; false when it holds no frame.
func (s *slot) second() (Second, bool) {
	sec := Second{Unix: s.unix}
	for k, n := range s.byKind {
		if n == 0 {
			continue
		}
		sec.Msgs += n
		if k > 0 { // slot 0 is out-of-range kinds: in Msgs, as in Totals, but unnamed
			if sec.ByKind == nil {
				sec.ByKind = make(map[string]int64)
			}
			sec.ByKind[wire.Kind(k).String()] = n
		}
	}
	return sec, sec.Msgs > 0
}

// cumulative reads the per-kind frame counters, both directions summed.
func (a *Accounting) cumulative() (c [wire.NumKinds]int64) {
	for k := range a.kinds {
		c[k] = a.kinds[k].sent.frames.Load() + a.kinds[k].recv.frames.Load()
	}
	return c
}

// sample files the frames counted since the previous sample under the second
// before now's, the one that just closed when Run calls it on a second
// boundary.
func (a *Accounting) sample(now time.Time) {
	cum := a.cumulative()
	a.loadMu.Lock()
	defer a.loadMu.Unlock()
	unix := now.Unix() - 1
	s := &a.slots[uint64(unix)%Window]
	if s.unix != unix {
		*s = slot{unix: unix}
	}
	for k := range cum {
		s.byKind[k] += cum[k] - a.sampled[k]
	}
	a.sampled = cum
}

// Run calls sample at every whole second of clk until stop is closed.
func (a *Accounting) Run(clk clock.Clock, stop <-chan struct{}) {
	for {
		now := clk.Now()
		select {
		case <-stop:
			return
		case now = <-clk.After(now.Truncate(time.Second).Add(time.Second).Sub(now)):
			a.sample(now)
		}
	}
}

// Seconds returns the busy seconds of the window, oldest first. The second in
// progress is last: the frames counted since the previous sample. Safe on a
// nil receiver.
func (a *Accounting) Seconds() []Second {
	if a == nil {
		return nil
	}
	return a.seconds(a.now().Unix())
}

func (a *Accounting) seconds(now int64) []Second {
	current := slot{unix: now}
	cum := a.cumulative()
	var out []Second
	a.loadMu.Lock()
	for k := range cum {
		current.byKind[k] = cum[k] - a.sampled[k]
	}
	for i := range a.slots {
		if s := &a.slots[i]; s.unix > now-Window && s.unix < now {
			if sec, ok := s.second(); ok {
				out = append(out, sec)
			}
		}
	}
	a.loadMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Unix < out[j].Unix })
	if sec, ok := current.second(); ok {
		out = append(out, sec)
	}
	return out
}

// burst summarizes the busy seconds among secs that fall in the trailing win
// seconds ending at now.
func burst(secs []Second, now int64, win int) Burst {
	b := Burst{WindowSeconds: win}
	var total int64
	for _, s := range secs {
		if s.Unix <= now-int64(win) || s.Unix > now {
			continue
		}
		b.BusySeconds++
		total += s.Msgs
		if s.Msgs > b.Peak {
			b.Peak, b.PeakUnix = s.Msgs, s.Unix
		}
	}
	b.IdleSeconds = win - b.BusySeconds
	b.Mean = float64(total) / float64(win)
	if b.Mean > 0 {
		b.Ratio = float64(b.Peak) / b.Mean
	}
	return b
}

// registerLoad exports the timeline as lease_load_* gauges: the last
// completed second, and the window's peak, mean, burst ratio, busy and idle
// seconds.
func (a *Accounting) registerLoad(reg *obs.Registry) {
	for name, stat := range map[string]func(last, window Burst) float64{
		"current_mps":  func(last, _ Burst) float64 { return float64(last.Peak) },
		"peak_mps":     func(_, w Burst) float64 { return float64(w.Peak) },
		"mean_mps":     func(_, w Burst) float64 { return w.Mean },
		"burst_ratio":  func(_, w Burst) float64 { return w.Ratio },
		"busy_seconds": func(_, w Burst) float64 { return float64(w.BusySeconds) },
		"idle_seconds": func(_, w Burst) float64 { return float64(w.IdleSeconds) },
	} {
		reg.GaugeFunc(fmt.Sprintf("lease_load_%s{node=%q}", name, a.node), func() float64 {
			now := a.now().Unix()
			secs := a.seconds(now)
			return stat(burst(secs, now-1, 1), burst(secs, now, Window))
		})
	}
}
