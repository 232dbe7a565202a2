package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
)

// TestPropertyReadsNeverStale drives a Table and one Holder per client with
// a random operation sequence and checks the protocol's central invariant
// after every action: a holder whose Check finds valid object AND volume
// leases holds the current version. Both halves of the protocol are the
// shipped code, and server writes follow the full BeginWrite /
// ack-or-timeout / FinishWrite path. Acknowledgments may come late: after
// the write has timed the holder out, after it has re-fetched the object, or
// while a later write of the object waits on it; and a holder may ask for a
// volume lease while it owes one. The volume conversation is not atomic:
// its request, each answer's delivery and each step back are separate
// actions, so a write may land between any two; steps under a foreign
// sequence number, or sent after a Recover, must be refused.
func TestPropertyReadsNeverStale(t *testing.T) {
	f := func(seed int64) bool {
		return !runRandomProtocol(t, seed, false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyReadsNeverStaleDelayed runs the same invariant in delayed
// mode with a finite discard window.
func TestPropertyReadsNeverStaleDelayed(t *testing.T) {
	f := func(seed int64) bool {
		return !runRandomProtocol(t, seed, true)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// start is the origin of the holders' monotonic timeline in the property
// test; with no skew, a holder trusts a lease exactly until its expiry.
var start = clock.At(0)

// anchor is the Anchor a holder takes at now.
func anchor(now time.Time) Anchor { return Anchor{Mono: now.Sub(start), Wall: now} }

// runRandomProtocol returns true if a consistency violation was found.
func runRandomProtocol(t *testing.T, seed int64, delayed bool) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{
		ObjectLease: time.Duration(10+rng.Intn(200)) * time.Second,
		VolumeLease: time.Duration(1+rng.Intn(30)) * time.Second,
		Mode:        ModeEager,
	}
	if delayed {
		cfg.Mode = ModeDelayed
		if rng.Intn(2) == 0 {
			cfg.InactiveDiscard = time.Duration(5+rng.Intn(60)) * time.Second
		}
	}
	tb, err := NewTable(cfg)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	if err := tb.CreateVolume("v"); err != nil {
		t.Fatal(err)
	}
	objects := []ObjectID{"a", "b", "c"}
	for _, o := range objects {
		if err := tb.CreateObject("v", o, []byte("init")); err != nil {
			t.Fatal(err)
		}
	}

	holders := map[ClientID]*Holder{}
	for i := 0; i < 3; i++ {
		holders[ClientID(fmt.Sprintf("c%d", i))] = NewHolder(0)
	}
	// reachable[c] == false models a partitioned client that cannot be
	// invalidated and does not ack.
	reachable := map[ClientID]bool{"c0": true, "c1": true, "c2": true}

	now := start
	// late holds acknowledgments sent but not yet delivered.
	type ack struct {
		client ClientID
		oid    ObjectID
		n      WriteNum
	}
	var late []ack
	// convs holds each client's volume conversation in flight: the client
	// half (the shipped Renewal) and either the table's answer not yet
	// delivered, or the client's next message not yet taken by the table.
	type conv struct {
		seq     uint64
		r       Renewal
		answer  *VolumeGrant // undelivered
		next    VolumeRequest
		crashed bool // the table recovered since the conversation opened
	}
	convs := map[ClientID]*conv{}
	var seq uint64
	// send hands c's next message to the table. A request opens a fresh
	// conversation under a new number; any other step after a Recover must
	// be refused.
	send := func(cid ClientID, c *conv) {
		var g VolumeGrant
		var err error
		switch c.next.Kind {
		case SendReqVolLease:
			seq++
			c.seq, c.crashed = seq, false
			g, err = tb.RequestVolume(now, cid, "v", c.next.Epoch, seq)
		case SendRenewObjLeases:
			g, err = tb.HandleRenewObjLeases(now, cid, "v", c.seq, c.next.Held)
		case SendAckInvalidate:
			g, err = tb.ConfirmVolume(now, cid, "v", c.seq, c.next.Acked)
		}
		switch {
		case c.crashed:
			if !errors.Is(err, ErrNoConversation) {
				t.Fatalf("step after Recover = %v, %v; want ErrNoConversation", g.Status, err)
			}
			delete(convs, cid)
		case err != nil:
			t.Fatalf("conversation step: %v", err)
		default:
			c.answer = &g
		}
	}
	// advance moves cid's conversation on by one message: the request, the
	// delivery of the table's answer to the client's Renewal, or the
	// client's next message. An answer of VolumeAckOwed leaves the last
	// message due again.
	advance := func(cid ClientID) {
		h, c := holders[cid], convs[cid]
		switch {
		case c == nil:
			r, req := h.RenewVolume("v", h.Epoch("v"))
			c = &conv{r: r, next: req}
			convs[cid] = c
			send(cid, c)
		case c.crashed && c.answer != nil:
			delete(convs, cid) // the connection went down with the table
		case c.answer != nil:
			g := *c.answer
			c.answer = nil
			if c.next = c.r.Step(g, anchor(now)).Next; c.next.Kind == RenewalDone {
				delete(convs, cid)
			}
		default:
			send(cid, c)
		}
	}
	deliver := func() {
		for _, a := range late {
			if _, _, err := tb.AckWrite(now, a.client, a.oid, a.n); err != nil {
				t.Fatal(err)
			}
		}
		late = late[:0]
	}
	// write runs a server write of oid to completion: a reachable holder
	// processes the invalidation and acks; for an unreachable one the server
	// waits out min(vol, obj), so time moves past that bound. With slow set,
	// the first reachable holder drops its copy but its ack is held back
	// (after asking for a volume lease, with renew set), so the write waits
	// out its bound too. Late acks may arrive while the write is in flight.
	write := func(oid ObjectID, step int, slow, renew bool) {
		plan, err := tb.BeginWrite(now, oid)
		if err != nil {
			return // write fence, etc.
		}
		if rng.Intn(2) == 0 {
			deliver()
		}
		for _, inv := range plan.Notify {
			h := holders[inv.Client]
			switch {
			case reachable[inv.Client] && slow:
				slow = false
				if renew {
					delete(convs, inv.Client) // abandoned for a new request
					advance(inv.Client)
				}
				h.Invalidate([]ObjectID{oid})
				late = append(late, ack{inv.Client, oid, plan.Write})
			case reachable[inv.Client]:
				h.Invalidate([]ObjectID{oid})
				if _, _, err := tb.AckWrite(now, inv.Client, oid, plan.Write); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if inv.LeaseExpire.After(now) {
				now = inv.LeaseExpire.Add(time.Millisecond)
			}
		}
		if _, err := tb.FinishWrite(now, oid, []byte(fmt.Sprintf("w%d", step)), tb.Unacked(now, oid)); err != nil {
			t.Fatal(err)
		}
	}

	checkAll := func() {
		checkCounts(t, tb, now)
		for cid, h := range holders {
			for _, oid := range objects {
				checkInvariant(t, tb, cid, h, oid, now)
			}
		}
	}
	for step := 0; step < 300; step++ {
		checkAll() // after the previous action, at its time
		now = now.Add(time.Duration(rng.Intn(8000)) * time.Millisecond)
		cid := ClientID(fmt.Sprintf("c%d", rng.Intn(3)))
		h := holders[cid]
		oid := objects[rng.Intn(len(objects))]

		switch op := rng.Intn(17); {
		case op < 5: // client read; op 4: its grant is overtaken by a write
			if !reachable[cid] {
				// A partitioned client can only read from cache, and only
				// under both valid leases: the invariant check.
				continue
			}
			_, _, volOK, objOK := h.Check("v", oid, anchor(now).Mono)
			if !volOK {
				advance(cid) // one message of the conversation per read
				if _, _, volOK, _ = h.Check("v", oid, anchor(now).Mono); !volOK {
					continue
				}
			}
			if !objOK || op == 4 {
				ver, token := h.Begin(oid)
				g, err := tb.GrantObjectLease(now, cid, oid, ver)
				if err != nil {
					t.Fatalf("GrantObjectLease: %v", err)
				}
				if op == 4 {
					// The write's invalidation reaches the holder before
					// the grant does, which must then be dropped.
					write(oid, step, false, false)
				}
				if err := h.GrantObject(token, "v", g, g.Data != nil, anchor(now)); err != nil {
					t.Fatalf("GrantObject: %v", err)
				}
			}

		case op < 8: // server write
			write(oid, step, false, false)

		case op < 9: // partition / heal a client
			reachable[cid] = !reachable[cid]

		case op < 10: // sweep
			tb.Sweep(now)

		case op < 11: // server crash-reboot (rare)
			if rng.Intn(4) == 0 {
				tb.Recover(now)
				for _, c := range convs {
					c.crashed = true
				}
			}

		case op < 12: // server write with a slow ack
			write(oid, step, true, false)

		case op < 13: // server write, and a renewal while an ack is owed
			write(oid, step, true, true)

		case op < 14: // late acks arrive, perhaps after a re-grant
			deliver()

		case op < 16: // a reachable client's conversation moves on
			for i, k := 0, rng.Intn(3); i < 3; i++ {
				if c := ClientID(fmt.Sprintf("c%d", (k+i)%3)); convs[c] != nil && reachable[c] {
					advance(c)
					break
				}
			}

		default: // a step under a number the table never gave cid
			foreign := seq + 1000
			if _, err := tb.ConfirmVolume(now, cid, "v", foreign, nil); !errors.Is(err, ErrNoConversation) {
				t.Fatalf("confirm under a foreign number: %v, want ErrNoConversation", err)
			}
			if _, err := tb.HandleRenewObjLeases(now, cid, "v", foreign, h.held("v")); !errors.Is(err, ErrNoConversation) {
				t.Fatalf("renewal under a foreign number: %v, want ErrNoConversation", err)
			}
		}
	}
	checkAll()
	return false // invariant violations fail the test directly
}

// checkCounts compares Stats' lease counts, which come from the table's
// running counts, with a walk of every lease record valid at now.
func checkCounts(t *testing.T, tb *Table, now time.Time) {
	t.Helper()
	var vols, objs int
	for _, v := range tb.volumes {
		for _, l := range v.at {
			if l.valid(now) {
				vols++
			}
		}
		for _, o := range v.objects {
			for _, l := range o.at {
				if l.valid(now) {
					objs++
				}
			}
		}
	}
	if s := tb.Stats(now); s.VolumeLeases != vols || s.ObjectLeases != objs {
		t.Fatalf("Stats counts %d volume and %d object leases; the maps hold %d and %d valid at %v",
			s.VolumeLeases, s.ObjectLeases, vols, objs, now)
	}
}

// TestSweepCountsRecordsStatsRemoved interleaves Stats and Sweep: a Stats
// call removes the records expired by its now, and the next Sweep still
// reports each of them, exactly once (lease_swept_leases_total).
func TestSweepCountsRecordsStatsRemoved(t *testing.T) {
	tb := newTable(t, eagerCfg()) // volume leases 10 s, object leases 100 s
	for i, c := range []ClientID{"c1", "c2", "c3"} {
		mustGrant(t, tb, at(float64(i)), c, "v")
		mustObj(t, tb, at(float64(i)), c, "a")
		mustObj(t, tb, at(float64(i)), c, "b")
	}
	steps := []struct {
		sweep bool
		sec   float64
		want  int // Sweep's removed count
	}{
		{false, 11, 0}, // Stats removes c1's and c2's volume leases
		{true, 11.5, 2},
		{false, 12, 0},       // c3's
		{false, 100.5, 0},    // c1's object leases
		{true, 101.5, 1 + 4}, // with c2's, which Sweep removes itself
		{false, 102.5, 0},    // c3's object leases
		{false, 103, 0},
		{true, 104, 2},
		{true, 300, 0},
	}
	for _, st := range steps {
		if !st.sweep {
			tb.Stats(at(st.sec))
			continue
		}
		if removed, _ := tb.Sweep(at(st.sec)); removed != st.want {
			t.Errorf("Sweep at %vs removed %d records, want %d", st.sec, removed, st.want)
		}
	}
}

// TestExpiryIndexStaysBounded runs write_fanout's shape against one table:
// 8 holders of one object under 10-minute leases, invalidated and granted
// again 10 000 times within one lease term, with no Stats or Sweep to drain
// the index. Each cycle's write drops 8 object leases, leaving their entries
// stale; the index must still never exceed twice the records it indexes plus a
// constant. The clock either advances a millisecond per cycle or stands
// still, as a simulated clock does between Advances: then every renewal and
// re-grant sets its record again to the expiry it already had.
func TestExpiryIndexStaysBounded(t *testing.T) {
	for _, tc := range []struct {
		name string
		step time.Duration
	}{{"advancing", time.Millisecond}, {"frozen", 0}} {
		t.Run(tc.name, func(t *testing.T) { expiryIndexStaysBounded(t, tc.step) })
	}
}

func expiryIndexStaysBounded(t *testing.T, step time.Duration) {
	tb, err := NewTable(Config{ObjectLease: 10 * time.Minute, VolumeLease: 10 * time.Minute, Mode: ModeEager})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.CreateVolume("v"); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreateObject("v", "o", []byte("x")); err != nil {
		t.Fatal(err)
	}
	v := tb.volumes["v"]
	check := func(cycle int) {
		if records := len(v.at) + v.objLeases; len(v.expiries) > 2*records+expirySlack {
			t.Fatalf("cycle %d: %d index entries for %d records", cycle, len(v.expiries), records)
		}
	}
	now := at(0)
	for cycle := 0; cycle < 10000; cycle++ {
		now = now.Add(step)
		for i := 0; i < 8; i++ {
			c := ClientID(fmt.Sprintf("c%d", i))
			mustGrant(t, tb, now, c, "v")
			mustObj(t, tb, now, c, "o")
			check(cycle)
		}
		plan, err := tb.BeginWrite(now, "o")
		if err != nil || len(plan.Notify) != 8 {
			t.Fatalf("cycle %d: plan %+v, %v", cycle, plan, err)
		}
		for _, inv := range plan.Notify {
			if err := tb.AckWriteInvalidate(now, inv.Client, "o"); err != nil {
				t.Fatal(err)
			}
			check(cycle)
		}
		if _, err := tb.FinishWrite(now, "o", []byte("y"), nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRenewalKeepsExpiryEntry: renewing a held object lease to a later
// expiry, the grant path of every lease miss, allocates nothing and adds no
// index entry; the entry left at the old expiry keeps the record until the
// new one, and the record goes then.
func TestRenewalKeepsExpiryEntry(t *testing.T) {
	tb, err := NewTable(Config{ObjectLease: 10 * time.Second, VolumeLease: 10 * time.Second, Mode: ModeEager})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.CreateVolume("v"); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreateObject("v", "o", []byte("x")); err != nil {
		t.Fatal(err)
	}
	v := tb.volumes["v"]
	now := at(0)
	mustGrant(t, tb, now, "c", "v")
	mustObj(t, tb, now, "c", "o")
	entries := len(v.expiries)
	if allocs := testing.AllocsPerRun(100, func() {
		now = now.Add(time.Millisecond)
		if _, err := tb.GrantObjectLease(now, "c", "o", 1); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("renewing a held object lease: %v allocs, want 0", allocs)
	}
	if len(v.expiries) != entries {
		t.Errorf("renewals took the index from %d to %d entries", entries, len(v.expiries))
	}
	renewedTo := now.Add(10 * time.Second)
	if s := tb.Stats(renewedTo.Add(-time.Millisecond)); s.ObjectLeases != 1 || s.VolumeLeases != 0 {
		t.Errorf("past the first grant's expiry, before the renewal's: %d object, %d volume leases; want 1, 0", s.ObjectLeases, s.VolumeLeases)
	}
	if s := tb.Stats(renewedTo); s.ObjectLeases != 0 || len(v.expiries) != 0 {
		t.Errorf("at the renewal's expiry: %d object leases, %d index entries; want 0, 0", s.ObjectLeases, len(v.expiries))
	}
}

// checkInvariant asserts: both leases valid (and so data cached) => the
// cached version is the server's current version.
func checkInvariant(t *testing.T, tb *Table, cid ClientID, h *Holder, oid ObjectID, now time.Time) {
	t.Helper()
	_, ver, volOK, objOK := h.Check("v", oid, anchor(now).Mono)
	if !volOK || !objOK {
		return // protocol forbids the read; nothing to check
	}
	serverVer, _, err := tb.Read(oid)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if ver != serverVer {
		volExpire, _, _, _ := h.Volume("v")
		_, _, objExpire, _, _ := h.Object(oid)
		t.Fatalf("STALE READ: client %s reads %s version %d under valid leases; server at %d (now=%v vol=%v obj=%v)",
			cid, oid, ver, serverVer, now, volExpire, objExpire)
	}
}
