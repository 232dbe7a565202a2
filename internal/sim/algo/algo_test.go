package algo

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// run executes tr against the algorithm built by mk and returns the
// recorder.
func run(t *testing.T, tr trace.Trace, mk func(env *sim.Env) sim.Algorithm) *metrics.Recorder {
	t.Helper()
	rec, _, err := sim.Simulate(tr, mk)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	return rec
}

func rd(sec float64, client, object string) trace.Event {
	return trace.Event{Time: clock.At(sec), Op: trace.OpRead, Client: client, Server: "s", Object: object, Size: 100}
}

func wr(sec float64, object string) trace.Event {
	return trace.Event{Time: clock.At(sec), Op: trace.OpWrite, Server: "s", Object: object, Size: 100}
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func wantMsgs(t *testing.T, rec *metrics.Recorder, want int64) {
	t.Helper()
	if got := rec.Totals().Messages; got != want {
		t.Errorf("total messages = %d, want %d", got, want)
	}
}

func wantStale(t *testing.T, rec *metrics.Recorder, want int64) {
	t.Helper()
	if _, got := rec.ReadStats(); got != want {
		t.Errorf("stale reads = %d, want %d", got, want)
	}
}

// --- PollEachRead ---

func TestPollEachReadEveryReadPolls(t *testing.T) {
	tr := trace.Trace{rd(0, "c", "o"), rd(10, "c", "o"), wr(15, "o"), rd(20, "c", "o")}
	rec := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewPollEachRead(env) })
	// read0: req+data; read10: req+ctrl; write: 0; read20: req+data.
	wantMsgs(t, rec, 6)
	wantStale(t, rec, 0)
	tot := rec.Totals()
	if tot.ByClass[metrics.MsgData] != 2 {
		t.Errorf("data responses = %d, want 2", tot.ByClass[metrics.MsgData])
	}
	if tot.ByClass[metrics.MsgReadValidate] != 4 {
		t.Errorf("validate msgs = %d, want 4", tot.ByClass[metrics.MsgReadValidate])
	}
}

func TestPollEachReadNoServerState(t *testing.T) {
	tr := trace.Trace{rd(0, "c", "o"), wr(5, "o"), rd(10, "c", "o")}
	rec := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewPollEachRead(env) })
	ss, ok := rec.Server("s")
	if !ok {
		t.Fatal("server never observed")
	}
	if ss.State.Peak() != 0 {
		t.Errorf("state peak = %d, want 0", ss.State.Peak())
	}
}

// --- Poll ---

func TestPollWithinTimeoutIsFree(t *testing.T) {
	tr := trace.Trace{rd(0, "c", "o"), rd(10, "c", "o"), rd(20, "c", "o")}
	rec := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewPoll(env, secs(100)) })
	// Only the first read talks to the server: req + data.
	wantMsgs(t, rec, 2)
	wantStale(t, rec, 0)
}

func TestPollStaleReadWithinTimeout(t *testing.T) {
	tr := trace.Trace{rd(0, "c", "o"), wr(15, "o"), rd(20, "c", "o"), rd(150, "c", "o")}
	rec := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewPoll(env, secs(100)) })
	// read20 trusts the cache and is stale; read150 revalidates (req+data).
	wantMsgs(t, rec, 4)
	wantStale(t, rec, 1)
}

// TestPollStalenessBoundedByTimeout: Poll(t) serves a stale copy only
// within t of validating it. Poll(60): the read at 0 validates and the
// write lands at 10; the read at 59 trusts the cache and is stale, the read
// at 61 revalidates (req + data) and is current.
func TestPollStalenessBoundedByTimeout(t *testing.T) {
	rec := metrics.NewRecorder()
	p := NewPoll(sim.NewEngine(rec).Env(), secs(60))
	for _, step := range []struct {
		e           trace.Event
		msgs, stale int64
	}{
		{rd(0, "c", "o"), 2, 0},
		{wr(10, "o"), 2, 0},
		{rd(59, "c", "o"), 2, 1},
		{rd(61, "c", "o"), 4, 1},
	} {
		if step.e.Op == trace.OpRead {
			p.HandleRead(step.e.Time, step.e)
		} else {
			p.HandleWrite(step.e.Time, step.e)
		}
		_, stale := rec.ReadStats()
		if msgs := rec.Totals().Messages; msgs != step.msgs || stale != step.stale {
			t.Errorf("after %s at %v: %d messages, %d stale reads; want %d, %d",
				step.e.Op, step.e.Time.Sub(clock.At(0)), msgs, stale, step.msgs, step.stale)
		}
	}
}

func TestPollZeroTimeoutEqualsPollEachRead(t *testing.T) {
	tr := trace.Trace{rd(0, "c", "o"), rd(10, "c", "o"), wr(15, "o"), rd(20, "c", "o")}
	recPoll := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewPoll(env, 0) })
	recPER := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewPollEachRead(env) })
	if recPoll.Totals().Messages != recPER.Totals().Messages {
		t.Errorf("Poll(0) sent %d msgs, PollEachRead %d",
			recPoll.Totals().Messages, recPER.Totals().Messages)
	}
	wantStale(t, recPoll, 0)
}

func TestPollRevalidationResetsWindow(t *testing.T) {
	// Reads every 60s with t=100: validations at 0, then read60 free,
	// read120 (validated at 0, 120 >= 100) revalidates, read180 free.
	tr := trace.Trace{rd(0, "c", "o"), rd(60, "c", "o"), rd(120, "c", "o"), rd(180, "c", "o")}
	rec := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewPoll(env, secs(100)) })
	wantMsgs(t, rec, 4) // two validations, first with data, second ctrl-only
}

func TestPollNames(t *testing.T) {
	var env sim.Env
	p := NewPoll(&env, secs(100000))
	if p.Name() != "Poll(100000)" {
		t.Errorf("Name = %q", p.Name())
	}
	if NewPollEachRead(&env).Name() != "PollEachRead" {
		t.Errorf("PollEachRead name wrong")
	}
}

// --- Callback ---

func TestCallbackReadFreeWriteNotifies(t *testing.T) {
	tr := trace.Trace{
		rd(0, "c1", "o"), rd(1, "c2", "o"), rd(10, "c1", "o"),
		wr(15, "o"),
		rd(20, "c1", "o"),
	}
	rec := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewCallback(env) })
	// c1 fetch (2) + c2 fetch (2) + read10 free + write inval/ack to both
	// (4) + c1 refetch (2) = 10.
	wantMsgs(t, rec, 10)
	wantStale(t, rec, 0)
	tot := rec.Totals()
	if tot.ByClass[metrics.MsgInvalidate] != 2 || tot.ByClass[metrics.MsgAckInvalidate] != 2 {
		t.Errorf("invalidations = %d/%d, want 2/2",
			tot.ByClass[metrics.MsgInvalidate], tot.ByClass[metrics.MsgAckInvalidate])
	}
}

func TestCallbackStateNeverExpires(t *testing.T) {
	tr := trace.Trace{rd(0, "c1", "o"), rd(0, "c2", "o")}
	rec := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewCallback(env) })
	ss, _ := rec.Server("s")
	if ss.State.Current() != 2*sim.LeaseRecordBytes {
		t.Errorf("state = %d, want %d", ss.State.Current(), 2*sim.LeaseRecordBytes)
	}
}

func TestCallbackStateReleasedOnWrite(t *testing.T) {
	tr := trace.Trace{rd(0, "c1", "o"), wr(10, "o")}
	rec := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewCallback(env) })
	ss, _ := rec.Server("s")
	if ss.State.Current() != 0 {
		t.Errorf("state after write = %d, want 0", ss.State.Current())
	}
}

func TestCallbackWriteWithNoCopiesSendsNothing(t *testing.T) {
	tr := trace.Trace{wr(0, "o"), wr(1, "o")}
	rec := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewCallback(env) })
	wantMsgs(t, rec, 0)
}

// --- Lease ---

func TestLeaseValidLeaseReadIsFree(t *testing.T) {
	tr := trace.Trace{rd(0, "c", "o"), rd(10, "c", "o"), rd(20, "c", "o")}
	rec := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewLease(env, secs(100)) })
	wantMsgs(t, rec, 2) // one fetch with lease
	wantStale(t, rec, 0)
}

func TestLeaseRenewalAfterExpiry(t *testing.T) {
	tr := trace.Trace{rd(0, "c", "o"), rd(150, "c", "o")}
	rec := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewLease(env, secs(100)) })
	// fetch (2) + renewal (2, no data since unchanged).
	wantMsgs(t, rec, 4)
	tot := rec.Totals()
	if tot.ByClass[metrics.MsgData] != 1 {
		t.Errorf("data msgs = %d, want 1", tot.ByClass[metrics.MsgData])
	}
}

func TestLeaseWriteInvalidatesOnlyValidHolders(t *testing.T) {
	tr := trace.Trace{
		rd(0, "c1", "o"),  // lease until 100
		rd(50, "c2", "o"), // lease until 150
		wr(120, "o"),      // only c2 still holds a lease
	}
	rec := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewLease(env, secs(100)) })
	tot := rec.Totals()
	if tot.ByClass[metrics.MsgInvalidate] != 1 {
		t.Errorf("invalidations = %d, want 1 (c1's lease expired)", tot.ByClass[metrics.MsgInvalidate])
	}
}

func TestLeaseStateDrainsToZero(t *testing.T) {
	tr := trace.Trace{rd(0, "c1", "o"), rd(5, "c2", "o2")}
	rec := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewLease(env, secs(100)) })
	ss, _ := rec.Server("s")
	if ss.State.Current() != 0 {
		t.Errorf("state after drain = %d, want 0", ss.State.Current())
	}
	if ss.State.Peak() != 2*sim.LeaseRecordBytes {
		t.Errorf("state peak = %d, want %d", ss.State.Peak(), 2*sim.LeaseRecordBytes)
	}
}

func TestLeaseRenewalExtendsExpiry(t *testing.T) {
	// A cache hit does NOT extend the lease (the client never contacts the
	// server), so the write at 90 invalidates the original lease; the
	// renewal at 120 starts a fresh lease that the write at 150 must also
	// invalidate.
	tr := trace.Trace{rd(0, "c", "o"), rd(80, "c", "o"), wr(90, "o"), rd(120, "c", "o"), wr(150, "o")}
	rec := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewLease(env, secs(100)) })
	tot := rec.Totals()
	// read0 fetch (2); read80 free; write90 inval+ack (2); read120 fetch
	// with data (2); write150 inval+ack (2).
	if tot.ByClass[metrics.MsgInvalidate] != 2 {
		t.Errorf("invalidations = %d, want 2", tot.ByClass[metrics.MsgInvalidate])
	}
	wantMsgs(t, rec, 8)
}

// --- Volume ---

func TestVolumeReadNeedsBothLeases(t *testing.T) {
	tr := trace.Trace{rd(0, "c", "o"), rd(5, "c", "o"), rd(12, "c", "o")}
	rec := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewVolume(env, secs(10), secs(100)) })
	// read0: vol (2) + obj fetch (2). read5: free. read12: vol renewal only (2).
	wantMsgs(t, rec, 6)
	tot := rec.Totals()
	if tot.ByClass[metrics.MsgVolLeaseReq] != 2 {
		t.Errorf("volume renewals = %d, want 2", tot.ByClass[metrics.MsgVolLeaseReq])
	}
	wantStale(t, rec, 0)
}

func TestVolumeAmortizesAcrossObjects(t *testing.T) {
	// Burst of reads to 5 objects: one volume renewal covers all.
	tr := trace.Trace{
		rd(0, "c", "a"), rd(1, "c", "b"), rd(2, "c", "c"),
		rd(3, "c", "d"), rd(4, "c", "e"),
	}
	rec := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewVolume(env, secs(10), secs(100)) })
	tot := rec.Totals()
	if tot.ByClass[metrics.MsgVolLeaseReq] != 1 {
		t.Errorf("volume renewals = %d, want 1", tot.ByClass[metrics.MsgVolLeaseReq])
	}
	// 2 vol msgs + 5 fetches * 2 = 12
	wantMsgs(t, rec, 12)
}

func TestVolumeWriteInvalidatesObjectLeaseHolders(t *testing.T) {
	// Client's volume lease expires at 10 but object lease lives to 100:
	// basic Volume still sends the invalidation (write cost C_o).
	tr := trace.Trace{rd(0, "c", "o"), wr(50, "o")}
	rec := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewVolume(env, secs(10), secs(100)) })
	tot := rec.Totals()
	if tot.ByClass[metrics.MsgInvalidate] != 1 {
		t.Errorf("invalidations = %d, want 1", tot.ByClass[metrics.MsgInvalidate])
	}
}

func TestVolumeStateDrains(t *testing.T) {
	tr := trace.Trace{rd(0, "c", "o")}
	rec := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewVolume(env, secs(10), secs(100)) })
	ss, _ := rec.Server("s")
	if ss.State.Current() != 0 {
		t.Errorf("state = %d, want 0 after leases expire", ss.State.Current())
	}
	// Peak: one volume lease + one object lease.
	if ss.State.Peak() != 2*sim.LeaseRecordBytes {
		t.Errorf("peak = %d, want %d", ss.State.Peak(), 2*sim.LeaseRecordBytes)
	}
}

func TestVolumeName(t *testing.T) {
	var env sim.Env
	v := NewVolume(&env, secs(10), secs(100000))
	if v.Name() != "Volume(10,100000)" {
		t.Errorf("Name = %q", v.Name())
	}
}

// --- Delay ---

func TestDelayDefersInvalidationAfterVolumeExpiry(t *testing.T) {
	tr := trace.Trace{
		rd(0, "c", "o"), // vol lease to 10, obj lease to 100
		wr(50, "o"),     // vol expired: no message, queue pending
		rd(60, "c", "o"),
	}
	rec := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewDelay(env, secs(10), secs(100), Forever) })
	tot := rec.Totals()
	if tot.ByClass[metrics.MsgInvalidate] != 0 {
		t.Errorf("eager invalidations = %d, want 0", tot.ByClass[metrics.MsgInvalidate])
	}
	if tot.ByClass[metrics.MsgInvalRenew] != 1 {
		t.Errorf("batched inval+renew = %d, want 1", tot.ByClass[metrics.MsgInvalRenew])
	}
	// read0: 4; write: 0; read60: flush (3: req, inval-renew, ack) + obj
	// refetch (2) = 5.
	wantMsgs(t, rec, 9)
	wantStale(t, rec, 0)
}

func TestDelayEagerInvalidationWhileVolumeValid(t *testing.T) {
	tr := trace.Trace{rd(0, "c", "o"), wr(5, "o")}
	rec := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewDelay(env, secs(10), secs(100), Forever) })
	tot := rec.Totals()
	if tot.ByClass[metrics.MsgInvalidate] != 1 || tot.ByClass[metrics.MsgAckInvalidate] != 1 {
		t.Errorf("eager inval/ack = %d/%d, want 1/1",
			tot.ByClass[metrics.MsgInvalidate], tot.ByClass[metrics.MsgAckInvalidate])
	}
}

func TestDelayNeverMoreMessagesThanVolume(t *testing.T) {
	// On any workload, Delay(tv,t,inf) should send no more messages than
	// Volume(tv,t): each flush costs 1 extra message but saves >= 2 per
	// deferred invalidation.
	tr := trace.Trace{
		rd(0, "c1", "a"), rd(1, "c1", "b"), rd(2, "c2", "a"),
		wr(30, "a"), wr(40, "b"),
		rd(50, "c1", "a"), rd(60, "c2", "a"), rd(200, "c1", "b"),
		wr(250, "a"), rd(300, "c1", "a"),
	}
	recV := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewVolume(env, secs(10), secs(1000)) })
	recD := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewDelay(env, secs(10), secs(1000), Forever) })
	if recD.Totals().Messages > recV.Totals().Messages {
		t.Errorf("Delay sent %d msgs, Volume %d", recD.Totals().Messages, recV.Totals().Messages)
	}
}

func TestDelayPendingStateChargedAndReleased(t *testing.T) {
	tr := trace.Trace{rd(0, "c", "o"), wr(50, "o"), rd(60, "c", "o")}
	rec := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewDelay(env, secs(10), secs(100), Forever) })
	ss, _ := rec.Server("s")
	if ss.State.Current() != 0 {
		t.Errorf("final state = %d, want 0", ss.State.Current())
	}
}

func TestDelayDiscardMovesClientToUnreachable(t *testing.T) {
	// d=20: volume expires at 10, write at 15 queues pending, discard at 30.
	// The read at 100 must run the reconnection protocol (6 messages) and
	// refetch the stale object.
	tr := trace.Trace{rd(0, "c", "o"), wr(15, "o"), rd(100, "c", "o")}
	rec := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewDelay(env, secs(10), secs(1000), secs(20)) })
	tot := rec.Totals()
	if tot.ByClass[metrics.MsgMustRenewAll] != 1 {
		t.Errorf("MUST_RENEW_ALL = %d, want 1", tot.ByClass[metrics.MsgMustRenewAll])
	}
	if tot.ByClass[metrics.MsgRenewObjLeases] != 1 {
		t.Errorf("RENEW_OBJ_LEASES = %d, want 1", tot.ByClass[metrics.MsgRenewObjLeases])
	}
	// read0: 4. write: 0. reconnect: 6 + obj refetch: 2 = 8.
	wantMsgs(t, rec, 12)
	wantStale(t, rec, 0)
}

func TestDelayReconnectRenewsCurrentCopies(t *testing.T) {
	// Client caches two objects; only one is written while unreachable. On
	// reconnection the unwritten object's lease is re-granted, so reading it
	// afterwards is free; the written one must be refetched.
	tr := trace.Trace{
		rd(0, "c", "a"), rd(1, "c", "b"), // leases to 1000, volume to 10
		wr(15, "a"),       // pending; discard at 10+20=30 -> unreachable
		rd(100, "c", "b"), // reconnect (6 msgs); b current -> lease renewed, free read
		rd(101, "c", "a"), // a stale -> refetch (2 msgs)
		rd(102, "c", "b"), // free
	}
	rec := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewDelay(env, secs(10), secs(1000), secs(20)) })
	// read0: 4 (vol+fetch a); read1: 2 (fetch b); write: 0; reconnect: 6;
	// read101: 2; read102: 0.
	wantMsgs(t, rec, 14)
	tot := rec.Totals()
	if tot.ByClass[metrics.MsgData] != 3 {
		t.Errorf("data fetches = %d, want 3 (a, b, a-again)", tot.ByClass[metrics.MsgData])
	}
	wantStale(t, rec, 0)
}

func TestDelayDiscardWithNothingHeldIsFree(t *testing.T) {
	// Volume expires, no writes touch the client's objects, object lease
	// expires naturally before d: client holds nothing at discard time, so
	// it is NOT marked unreachable and a later renewal is plain.
	tr := trace.Trace{rd(0, "c", "o"), rd(500, "c", "o")}
	rec := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewDelay(env, secs(10), secs(50), secs(100)) })
	tot := rec.Totals()
	if tot.ByClass[metrics.MsgMustRenewAll] != 0 {
		t.Errorf("unexpected reconnection")
	}
	// read0: 4; read500: vol (2) + obj renewal (2, no data - unchanged).
	wantMsgs(t, rec, 8)
}

func TestDelayRenewalCancelsDiscard(t *testing.T) {
	// Client renews its volume before d elapses: the discard timer must not
	// fire, leases stay, and no reconnection happens later.
	tr := trace.Trace{
		rd(0, "c", "o"),  // vol to 10, obj to 1000
		rd(25, "c", "o"), // vol renewal at 25 (d=30 from expiry at 10 => discard at 40)
		wr(30, "o"),      // vol valid (25..35): eager invalidation
		rd(50, "c", "o"),
	}
	rec := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewDelay(env, secs(10), secs(1000), secs(30)) })
	tot := rec.Totals()
	if tot.ByClass[metrics.MsgInvalidate] != 1 {
		t.Errorf("eager invalidations = %d, want 1", tot.ByClass[metrics.MsgInvalidate])
	}
	if tot.ByClass[metrics.MsgMustRenewAll] != 0 {
		t.Errorf("reconnection happened despite renewal")
	}
	wantStale(t, rec, 0)
}

func TestDelayName(t *testing.T) {
	var env sim.Env
	d := NewDelay(&env, secs(10), secs(100000), Forever)
	if d.Name() != "Delay(10,100000,inf)" {
		t.Errorf("Name = %q", d.Name())
	}
	d2 := NewDelay(&env, secs(100), secs(1000), secs(60))
	if d2.Name() != "Delay(100,1000,60)" {
		t.Errorf("Name = %q", d2.Name())
	}
}

// --- cross-algorithm invariants on a fixed multi-client scenario ---

func scenario() trace.Trace {
	var tr trace.Trace
	clients := []string{"c1", "c2", "c3"}
	objects := []string{"a", "b", "c", "d"}
	sec := 0.0
	for round := 0; round < 6; round++ {
		for ci, c := range clients {
			for oi, o := range objects {
				if (round+ci+oi)%2 == 0 {
					tr = append(tr, rd(sec, c, o))
					sec += 7
				}
			}
		}
		tr = append(tr, wr(sec, objects[round%len(objects)]))
		sec += 120
	}
	tr.Sort()
	return tr
}

func TestStrongAlgorithmsNeverServeStale(t *testing.T) {
	tr := scenario()
	algos := map[string]func(env *sim.Env) sim.Algorithm{
		"PollEachRead": func(env *sim.Env) sim.Algorithm { return NewPollEachRead(env) },
		"Callback":     func(env *sim.Env) sim.Algorithm { return NewCallback(env) },
		"Lease":        func(env *sim.Env) sim.Algorithm { return NewLease(env, secs(100)) },
		"Volume":       func(env *sim.Env) sim.Algorithm { return NewVolume(env, secs(10), secs(100)) },
		"DelayInf":     func(env *sim.Env) sim.Algorithm { return NewDelay(env, secs(10), secs(100), Forever) },
		"DelayShortD":  func(env *sim.Env) sim.Algorithm { return NewDelay(env, secs(10), secs(100), secs(30)) },
	}
	for name, mk := range algos {
		t.Run(name, func(t *testing.T) {
			rec := run(t, tr, mk)
			reads, stale := rec.ReadStats()
			if reads == 0 {
				t.Fatal("no reads recorded")
			}
			if stale != 0 {
				t.Errorf("%s served %d stale reads", name, stale)
			}
		})
	}
}

func TestPollLongTimeoutServesStale(t *testing.T) {
	rec := run(t, scenario(), func(env *sim.Env) sim.Algorithm { return NewPoll(env, secs(100000)) })
	if rec.StaleRate() == 0 {
		t.Error("Poll with a huge timeout should serve stale reads on this workload")
	}
}

func TestDeterminism(t *testing.T) {
	tr := scenario()
	a := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewDelay(env, secs(10), secs(100), secs(30)) })
	b := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewDelay(env, secs(10), secs(100), secs(30)) })
	if a.Totals() != b.Totals() {
		t.Errorf("non-deterministic totals: %+v vs %+v", a.Totals(), b.Totals())
	}
}

func TestVolumeOverheadShrinksWithLongerTv(t *testing.T) {
	tr := scenario()
	short := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewVolume(env, secs(10), secs(100)) })
	long := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewVolume(env, secs(100), secs(100)) })
	lease := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewLease(env, secs(100)) })
	if short.Totals().Messages < long.Totals().Messages {
		t.Errorf("Volume(10) sent fewer msgs (%d) than Volume(100) (%d)",
			short.Totals().Messages, long.Totals().Messages)
	}
	if long.Totals().Messages < lease.Totals().Messages {
		t.Errorf("Volume(100) sent fewer msgs (%d) than Lease (%d): volume overhead cannot be negative",
			long.Totals().Messages, lease.Totals().Messages)
	}
}
