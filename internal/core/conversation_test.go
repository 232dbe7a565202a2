package core

import (
	"errors"
	"slices"
	"testing"
	"time"
)

// holderWith grants c a volume lease and leases on objs at now, recording
// each grant in a fresh holder as well.
func holderWith(t *testing.T, tb *Table, now time.Time, c ClientID, objs ...ObjectID) *Holder {
	t.Helper()
	h := NewHolder(0)
	g, err := tb.RequestVolumeLease(now, c, "v", 0)
	if err != nil || g.Status != VolumeGranted {
		t.Fatalf("volume grant = %+v, %v", g, err)
	}
	h.grantVolume("v", g.Epoch, g.Expire, anchor(now))
	for _, oid := range objs {
		ver, token := h.Begin(oid)
		og, err := tb.GrantObjectLease(now, c, oid, ver)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.GrantObject(token, "v", og, og.Data != nil, anchor(now)); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// settle walks h through conversation 0 from the table's answer g until it
// is granted, the holder's Renewal applying every answer.
func settle(t *testing.T, tb *Table, now time.Time, c ClientID, h *Holder, g VolumeGrant, err error) {
	t.Helper()
	r, _ := h.RenewVolume("v", 0)
	for round := 0; round < 8; round++ {
		if err != nil {
			t.Fatal(err)
		}
		switch req := r.Step(g, anchor(now)).Next; req.Kind {
		case RenewalDone:
			return
		case SendAckInvalidate:
			g, err = tb.ConfirmVolume(now, c, "v", 0, req.Acked)
		case SendRenewObjLeases:
			g, err = tb.HandleRenewObjLeases(now, c, "v", 0, req.Held)
		default:
			t.Fatalf("conversation answered %v", g.Status)
		}
	}
	t.Fatal("conversation did not converge")
}

// mustWrite runs a write of oid at now that waits for nobody.
func mustWrite(t *testing.T, tb *Table, now time.Time, oid ObjectID) WritePlan {
	t.Helper()
	plan, err := tb.BeginWrite(now, oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Notify) != 0 {
		t.Fatalf("write of %s notified %+v, want nobody", oid, plan.Notify)
	}
	if _, err := tb.FinishWrite(now, oid, []byte("new"), nil); err != nil {
		t.Fatal(err)
	}
	return plan
}

// mustNotReadStale fails if h would serve oid at now from a copy older than
// the table's.
func mustNotReadStale(t *testing.T, tb *Table, h *Holder, oid ObjectID, now time.Time) {
	t.Helper()
	_, ver, volOK, objOK := h.Check("v", oid, anchor(now).Mono)
	if cur, _, _ := tb.Read(oid); volOK && objOK && ver != cur {
		t.Errorf("holder reads %s v%d under valid leases; the table is at v%d", oid, ver, cur)
	}
}

// TestPendingDeliveryWindow: in delayed mode, a write queued for the client
// after its pending vector went out is delivered in another round before
// the volume lease, not dropped with the vector's.
func TestPendingDeliveryWindow(t *testing.T) {
	tb := newTable(t, delayedCfg(0))
	h := holderWith(t, tb, at(0), "c", "a", "b") // volume lease to 10 s
	if plan := mustWrite(t, tb, at(20), "a"); len(plan.Queued) != 1 {
		t.Fatalf("a's write queued %+v, want c", plan.Queued)
	}
	g, _ := tb.RequestVolumeLease(at(30), "c", "v", 0)
	if g.Status != VolumePendingInvalidations || !slices.Equal(g.Invalidate, []ObjectID{"a"}) {
		t.Fatalf("renewal = %v %v, want pending-invalidations [a]", g.Status, g.Invalidate)
	}
	if plan := mustWrite(t, tb, at(30), "b"); len(plan.Queued) != 1 {
		t.Fatalf("b's write queued %+v, want c", plan.Queued)
	}
	h.Invalidate(g.Invalidate)
	g, err := tb.ConfirmVolume(at(30), "c", "v", 0, g.Invalidate)
	if g.Status != VolumePendingInvalidations || !slices.Equal(g.Invalidate, []ObjectID{"b"}) {
		t.Errorf("confirm = %v %v, want pending-invalidations [b]", g.Status, g.Invalidate)
	}
	settle(t, tb, at(30), "c", h, g, err)
	mustNotReadStale(t, tb, h, "b", at(31))
}

// TestReconnectWindow: a write that lands between the reconnection vector
// and its ack skips the still-Unreachable client and drops the lease the
// vector renewed; the confirm sends another round instead of granting.
func TestReconnectWindow(t *testing.T) {
	for _, cfg := range []Config{eagerCfg(), delayedCfg(0)} {
		t.Run(cfg.Mode.String(), func(t *testing.T) {
			tb := newTable(t, cfg)
			h := holderWith(t, tb, at(0), "c", "a", "b")
			// c misses b's write and becomes Unreachable.
			if _, err := tb.BeginWrite(at(1), "b"); err != nil {
				t.Fatal(err)
			}
			if _, err := tb.FinishWrite(at(11), "b", []byte("b2"), tb.Unacked(at(11), "b")); err != nil {
				t.Fatal(err)
			}
			if g, _ := tb.RequestVolumeLease(at(20), "c", "v", 0); g.Status != VolumeNeedsRenewAll {
				t.Fatalf("renewal = %v, want needs-renew-all", g.Status)
			}
			g, err := tb.HandleRenewObjLeases(at(20), "c", "v", 0, h.held("v"))
			if err != nil || !slices.Equal(g.Invalidate, []ObjectID{"b"}) || len(g.Renew) != 1 {
				t.Fatalf("vector = %+v, %v; want invalidate [b], renew [a]", g, err)
			}
			h.Invalidate(g.Invalidate)
			h.renewObject("a", g.Renew[0].Version, g.Renew[0].Expire, anchor(at(20)))
			mustWrite(t, tb, at(20), "a")
			g, err = tb.ConfirmVolume(at(20), "c", "v", 0, g.Invalidate)
			if g.Status != VolumePendingInvalidations || !slices.Equal(g.Invalidate, []ObjectID{"a"}) {
				t.Errorf("confirm = %v %v, want pending-invalidations [a]", g.Status, g.Invalidate)
			}
			settle(t, tb, at(20), "c", h, g, err)
			mustNotReadStale(t, tb, h, "a", at(21))
		})
	}
}

// TestConfirmSeesRenewedVersionMove: a renewed object whose version moves
// before the ack (here a cache installing its upstream's next version) is
// invalidated in another round.
func TestConfirmSeesRenewedVersionMove(t *testing.T) {
	tb := newTable(t, eagerCfg())
	h := holderWith(t, tb, at(0), "c", "a")
	if g, _ := tb.RequestVolumeLease(at(1), "c", "v", NoEpoch); g.Status != VolumeNeedsRenewAll {
		t.Fatalf("renewal = %v, want needs-renew-all", g.Status)
	}
	g, err := tb.HandleRenewObjLeases(at(1), "c", "v", 0, h.held("v"))
	if err != nil || len(g.Renew) != 1 {
		t.Fatalf("vector = %+v, %v; want a renewed", g, err)
	}
	if err := tb.InstallVersion(at(1), "a", []byte("a5"), 5, nil); err != nil {
		t.Fatal(err)
	}
	g, err = tb.ConfirmVolume(at(1), "c", "v", 0, nil)
	if g.Status != VolumePendingInvalidations || !slices.Equal(g.Invalidate, []ObjectID{"a"}) {
		t.Errorf("confirm = %v %v, want pending-invalidations [a]", g.Status, g.Invalidate)
	}
	settle(t, tb, at(1), "c", h, g, err)
	mustNotReadStale(t, tb, h, "a", at(2))
}

// TestConfirmAfterDiscardNeedsRenewAll: a client discarded to the
// Unreachable set at expire + d while its pending vector was out must
// reconnect before it is granted.
func TestConfirmAfterDiscardNeedsRenewAll(t *testing.T) {
	tb := newTable(t, delayedCfg(30*time.Second)) // discard at 10 + 30 s
	h := holderWith(t, tb, at(0), "c", "a", "b")
	mustWrite(t, tb, at(20), "a")
	g, _ := tb.RequestVolumeLease(at(30), "c", "v", 0)
	h.Invalidate(g.Invalidate)
	if _, discarded := tb.Sweep(at(45)); len(discarded) != 1 {
		t.Fatalf("sweep discarded %v, want c", discarded)
	}
	g, err := tb.ConfirmVolume(at(45), "c", "v", 0, g.Invalidate)
	if err != nil || g.Status != VolumeNeedsRenewAll {
		t.Fatalf("confirm after the discard = %v, %v; want needs-renew-all", g.Status, err)
	}
	settle(t, tb, at(45), "c", h, g, err)
	if s := tb.Stats(at(45)); s.UnreachableClients != 0 || s.ObjectLeases != 1 {
		t.Errorf("after the reconnection: %+v, want b renewed and nobody unreachable", s)
	}
}

// TestSweepDuringReconnectionDiscardsOnce: the request that discards a client
// at expire + d retires the expired volume-lease record it judged, so a sweep
// at the same instant, between the vector and its ack, finds nothing to
// discard again: the reconnection takes one vector and is granted.
func TestSweepDuringReconnectionDiscardsOnce(t *testing.T) {
	tb := newTable(t, delayedCfg(30*time.Second)) // discard at 10 + 30 s
	h := holderWith(t, tb, at(0), "c", "a")
	g, _ := tb.RequestVolumeLease(at(45), "c", "v", 0)
	if g.Status != VolumeNeedsRenewAll {
		t.Fatalf("request after expire + d = %v, want needs-renew-all", g.Status)
	}
	g, err := tb.HandleRenewObjLeases(at(45), "c", "v", 0, h.held("v"))
	if err != nil || len(g.Renew) != 1 {
		t.Fatalf("vector = %+v, %v; want a renewed", g, err)
	}
	if _, discarded := tb.Sweep(at(45)); len(discarded) != 0 {
		t.Errorf("sweep discarded %v again", discarded)
	}
	g, err = tb.ConfirmVolume(at(45), "c", "v", 0, g.Invalidate)
	if err != nil || g.Status != VolumeGranted {
		t.Fatalf("confirm = %v, %v; want granted", g.Status, err)
	}
	if s := tb.Stats(at(45)); s.UnreachableClients != 0 || s.ObjectLeases != 1 || s.VolumeLeases != 1 {
		t.Errorf("after the reconnection: %+v, want a and the volume leased, nobody unreachable", s)
	}
}

// TestConfirmDefersWhileAckOwed: a confirm is deferred, as a request is,
// while the client owes a write in flight its ack.
func TestConfirmDefersWhileAckOwed(t *testing.T) {
	tb := newTable(t, eagerCfg())
	h := NewHolder(0)
	ver, token := h.Begin("a")
	og, _ := tb.GrantObjectLease(at(0), "c", "a", ver)
	if err := h.GrantObject(token, "v", og, true, anchor(at(0))); err != nil {
		t.Fatal(err)
	}
	if g, _ := tb.RequestVolumeLease(at(0), "c", "v", NoEpoch); g.Status != VolumeNeedsRenewAll {
		t.Fatalf("first contact = %v, want needs-renew-all", g.Status)
	}
	g, err := tb.HandleRenewObjLeases(at(0), "c", "v", 0, h.held("v"))
	if err != nil || len(g.Renew) != 1 {
		t.Fatalf("vector = %+v, %v; want a renewed", g, err)
	}
	plan, _ := tb.BeginWrite(at(1), "a")
	if len(plan.Notify) != 1 {
		t.Fatalf("write notified %+v, want c", plan.Notify)
	}
	if g, _ := tb.ConfirmVolume(at(1), "c", "v", 0, nil); g.Status != VolumeAckOwed || !slices.Equal(g.Owed, []ObjectID{"a"}) {
		t.Fatalf("confirm while owing = %v %v, want ack-owed [a]", g.Status, g.Owed)
	}
	h.Invalidate([]ObjectID{"a"})
	if err := tb.AckWriteInvalidate(at(1), "c", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.FinishWrite(at(1), "a", []byte("a2"), nil); err != nil {
		t.Fatal(err)
	}
	g, err = tb.ConfirmVolume(at(1), "c", "v", 0, nil)
	settle(t, tb, at(1), "c", h, g, err)
	mustNotReadStale(t, tb, h, "a", at(2))
}

// TestConversationRefusesForeignSteps: a step is taken only in the client's
// open conversation, under its number and at its step; a new request or a
// Recover ends the conversation.
func TestConversationRefusesForeignSteps(t *testing.T) {
	tb := newTable(t, eagerCfg())
	refused := func(what string, g VolumeGrant, err error) {
		t.Helper()
		if !errors.Is(err, ErrNoConversation) {
			t.Errorf("%s = %v, %v; want ErrNoConversation", what, g.Status, err)
		}
	}
	g, err := tb.HandleRenewObjLeases(at(0), "c", "v", 7, nil)
	refused("renewal with no conversation", g, err)
	if g, _ := tb.RequestVolume(at(0), "c", "v", NoEpoch, 7); g.Status != VolumeNeedsRenewAll {
		t.Fatalf("first contact = %v, want needs-renew-all", g.Status)
	}
	g, err = tb.HandleRenewObjLeases(at(0), "c", "v", 8, nil)
	refused("renewal under another number", g, err)
	g, err = tb.ConfirmVolume(at(0), "c", "v", 7, nil)
	refused("confirm before the renewal", g, err)
	if _, err := tb.HandleRenewObjLeases(at(0), "c", "v", 7, nil); err != nil {
		t.Fatal(err)
	}
	g, err = tb.ConfirmVolume(at(0), "c", "v", 8, nil)
	refused("confirm under another number", g, err)
	tb.Recover(at(1))
	g, err = tb.ConfirmVolume(at(1), "c", "v", 7, nil)
	refused("confirm after Recover", g, err)
	if g, _ := tb.RequestVolume(at(1), "c", "v", 0, 9); g.Status != VolumeNeedsRenewAll {
		t.Fatalf("renewal after Recover = %v, want needs-renew-all", g.Status)
	}
	if g, _ := tb.RequestVolume(at(1), "c", "v", 0, 10); g.Status != VolumeNeedsRenewAll {
		t.Fatalf("second request = %v, want needs-renew-all", g.Status)
	}
	g, err = tb.HandleRenewObjLeases(at(1), "c", "v", 9, nil)
	refused("renewal in an abandoned conversation", g, err)
}
