package core

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// The write-time guards: what a grant, a renewal and an acknowledgment may
// do while a write of the object is in flight. The table alone has to keep
// them; nothing in front of it does.

// TestMidWriteRenewalDeferred: p holds both leases from 0 s and owes the
// write begun at 5 s an acknowledgment, whose wait bound is its volume
// expiry at 10 s. Granting p's renewal at 8 s (to 18 s) would let the write
// time p out at 10 s while p still holds a volume lease; p could then fetch
// version 2 at 11 s and read it under valid leases after a write at 12 s
// that skips p as unreachable. The renewal is deferred instead.
func TestMidWriteRenewalDeferred(t *testing.T) {
	tb := newTable(t, eagerCfg()) // t_v 10 s
	mustGrant(t, tb, at(0), "p", "v")
	mustObj(t, tb, at(0), "p", "a")
	if _, err := tb.BeginWrite(at(5), "a"); err != nil {
		t.Fatal(err)
	}
	g, err := tb.RequestVolumeLease(at(8), "p", "v", 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Status != VolumeAckOwed || fmt.Sprint(g.Owed) != "[a]" {
		t.Fatalf("renewal while the ack is owed = %v %v (expire %v), want ack-owed [a]", g.Status, g.Owed, g.Expire)
	}
	if got := fmt.Sprint(tb.Unacked(at(8), "a")); got != "[p]" {
		t.Fatalf("Unacked = %s, want [p]", got)
	}
	if _, err := tb.FinishWrite(at(10), "a", []byte("v2"), []ClientID{"p"}); err != nil {
		t.Fatal(err)
	}
	if g, _ := tb.RequestVolumeLease(at(11), "p", "v", 0); g.Status != VolumeNeedsRenewAll {
		t.Errorf("renewal after the write timed p out = %v, want needs-renew-all", g.Status)
	}
}

// TestGrantDuringWriteRefused: while a write of a is in flight, a lease on a
// is neither granted nor renewed, and a second write of a is refused. After
// the finish the grant carries the new version.
func TestGrantDuringWriteRefused(t *testing.T) {
	tb := newTable(t, eagerCfg())
	mustGrant(t, tb, at(0), "p", "v")
	mustObj(t, tb, at(0), "p", "a")
	if _, err := tb.BeginWrite(at(5), "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.GrantObjectLease(at(6), "q", "a", NoVersion); !errors.Is(err, ErrWriteInFlight) {
		t.Errorf("grant during the write: %v, want ErrWriteInFlight", err)
	}
	if _, err := tb.HandleRenewObjLeases(at(6), "q", "v", 0, []HeldObject{{Object: "a", Version: 1}}); !errors.Is(err, ErrWriteInFlight) {
		t.Errorf("renewal during the write: %v, want ErrWriteInFlight", err)
	}
	if _, err := tb.BeginWrite(at(6), "a"); !errors.Is(err, ErrWriteInFlight) {
		t.Errorf("second write: %v, want ErrWriteInFlight", err)
	}
	if err := tb.AckWriteInvalidate(at(7), "p", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.FinishWrite(at(7), "a", []byte("v2"), nil); err != nil {
		t.Fatal(err)
	}
	g, err := tb.GrantObjectLease(at(8), "q", "a", NoVersion)
	if err != nil || g.Version != 2 {
		t.Errorf("grant after the write = v%d, %v; want v2", g.Version, err)
	}
}

// TestStrayAckIgnored: an acknowledgment with no write in flight to answer
// (one that arrived after its write finished) leaves r's lease alone, so the
// next write still invalidates r.
func TestStrayAckIgnored(t *testing.T) {
	tb := newTable(t, eagerCfg())
	mustGrant(t, tb, at(0), "r", "v")
	mustObj(t, tb, at(0), "r", "a")
	if err := tb.AckWriteInvalidate(at(1), "r", "a"); err != nil {
		t.Fatal(err)
	}
	plan, err := tb.BeginWrite(at(2), "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Notify) != 1 || plan.Notify[0].Client != "r" {
		t.Errorf("notify = %+v, want [r]: the stray ack released r's lease", plan.Notify)
	}
}

// TestAckAnswersItsOwnWrite: r's ack of write 1 arrives while write 2 of the
// same object waits on r. It answers write 1 only; write 2 still waits for
// r's own ack.
func TestAckAnswersItsOwnWrite(t *testing.T) {
	tb := newTable(t, eagerCfg())
	mustGrant(t, tb, at(0), "r", "v")
	mustObj(t, tb, at(0), "r", "a")
	first, _ := tb.BeginWrite(at(1), "a")
	if _, err := tb.FinishWrite(at(1), "a", []byte("v2"), nil); err != nil { // r timed out
		t.Fatal(err)
	}
	reconnect(t, tb, at(2), "r")
	mustObj(t, tb, at(2), "r", "a")
	second, err := tb.BeginWrite(at(3), "a")
	if err != nil || second.Write != first.Write+1 || len(second.Notify) != 1 {
		t.Fatalf("second plan = %+v, %v", second, err)
	}
	if applied, _, _ := tb.AckWrite(at(4), "r", "a", first.Write); applied {
		t.Error("the first write's ack was applied to the second")
	}
	if got := fmt.Sprint(tb.Unacked(at(4), "a")); got != "[r]" {
		t.Errorf("Unacked = %s, want [r]", got)
	}
	if applied, last, _ := tb.AckWrite(at(4), "r", "a", second.Write); !applied || !last {
		t.Errorf("the second write's own ack: applied %v, last %v", applied, last)
	}
}

// TestPendingAcksInSnapshot: the snapshot lists each outstanding
// invalidation with its bound until it is acknowledged.
func TestPendingAcksInSnapshot(t *testing.T) {
	tb := newTable(t, eagerCfg())
	for _, c := range []ClientID{"c1", "c2"} {
		mustGrant(t, tb, at(0), c, "v")
		mustObj(t, tb, at(0), c, "a")
	}
	if _, err := tb.BeginWrite(at(1), "a"); err != nil {
		t.Fatal(err)
	}
	if err := tb.AckWriteInvalidate(at(1), "c1", "a"); err != nil {
		t.Fatal(err)
	}
	acks := tb.Snapshot(at(2))[0].PendingAcks
	if len(acks) != 1 || acks[0].Client != "c2" || acks[0].Object != "a" || !acks[0].Deadline.Equal(at(10)) {
		t.Errorf("pending acks = %+v, want c2 on a until 10 s", acks)
	}
}

// reconnect walks a client through the reconnection protocol with nothing
// cached.
func reconnect(t *testing.T, tb *Table, now time.Time, c ClientID) {
	t.Helper()
	if g, _ := tb.RequestVolumeLease(now, c, "v", 0); g.Status != VolumeNeedsRenewAll {
		t.Fatalf("status = %v, want needs-renew-all", g.Status)
	}
	if _, err := tb.HandleRenewObjLeases(now, c, "v", 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ConfirmVolume(now, c, "v", 0, nil); err != nil {
		t.Fatal(err)
	}
}
