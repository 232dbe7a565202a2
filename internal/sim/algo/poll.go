package algo

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// PollEachRead implements Section 2.1: before every access the client asks
// the server whether its cached object is valid; unchanged data is not
// resent. Clients never see stale data and writes never wait.
type PollEachRead struct {
	base
}

var _ sim.Algorithm = (*PollEachRead)(nil)

// NewPollEachRead constructs the algorithm.
func NewPollEachRead(env *sim.Env) *PollEachRead {
	return &PollEachRead{base: newBase(env)}
}

// Name implements sim.Algorithm.
func (*PollEachRead) Name() string { return "PollEachRead" }

// HandleRead implements sim.Algorithm.
func (p *PollEachRead) HandleRead(now time.Time, e trace.Event) {
	k := objKey{e.Server, e.Object}
	ck := copyKey{e.Client, k}
	p.msg(now, e.Server, metrics.MsgReadValidate, sim.CtrlBytes)
	p.fetchResponse(now, ck, e.Size, metrics.MsgReadValidate)
	p.env.Rec.Read(false)
}

// HandleWrite implements sim.Algorithm.
func (p *PollEachRead) HandleWrite(now time.Time, e trace.Event) {
	k := objKey{e.Server, e.Object}
	p.bump(k)
	p.env.Rec.Write(0)
}

// Poll implements Section 2.2: a validated object is trusted for Timeout
// seconds; within the window reads hit the cache (and may return stale
// data), after it the client revalidates with the server.
type Poll struct {
	base
	t         time.Duration
	validated map[copyKey]time.Time
}

var _ sim.Algorithm = (*Poll)(nil)

// NewPoll constructs Poll with the given timeout. A zero timeout makes Poll
// equivalent to PollEachRead.
func NewPoll(env *sim.Env, t time.Duration) *Poll {
	return &Poll{
		base:      newBase(env),
		t:         t,
		validated: make(map[copyKey]time.Time),
	}
}

// Name implements sim.Algorithm.
func (p *Poll) Name() string { return fmt.Sprintf("Poll(%s)", seconds(p.t)) }

// HandleRead implements sim.Algorithm.
func (p *Poll) HandleRead(now time.Time, e trace.Event) {
	k := objKey{e.Server, e.Object}
	ck := copyKey{e.Client, k}
	if at, ok := p.validated[ck]; ok && now.Before(at.Add(p.t)) && p.hasCopy(ck) {
		// Within the timeout the cache is trusted blindly; the read is stale
		// iff the server has written since the copy was fetched.
		p.env.Rec.Read(!p.hasCurrentCopy(ck))
		return
	}
	p.msg(now, e.Server, metrics.MsgReadValidate, sim.CtrlBytes)
	p.fetchResponse(now, ck, e.Size, metrics.MsgReadValidate)
	p.validated[ck] = now
	p.env.Rec.Read(false)
}

// HandleWrite implements sim.Algorithm.
func (p *Poll) HandleWrite(now time.Time, e trace.Event) {
	k := objKey{e.Server, e.Object}
	p.bump(k)
	p.env.Rec.Write(0)
}

// seconds formats a duration as a bare seconds count for algorithm names,
// matching the paper's notation (e.g. Poll(100000)).
func seconds(d time.Duration) string {
	s := d.Seconds()
	if s == float64(int64(s)) {
		return fmt.Sprintf("%d", int64(s))
	}
	return fmt.Sprintf("%g", s)
}
