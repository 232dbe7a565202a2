package core

import (
	"reflect"
	"testing"
	"time"
)

// TestRenewalSteps walks a Renewal through each shape of Figure 4's volume
// conversation, checking the message each answer leads to, the copies it
// drops, the holder's leases afterwards, and which grant the paper's cost
// model folds into the vector.
func TestRenewalSteps(t *testing.T) {
	now := 2 * time.Second // holderAnchor's timeline: every lease below runs to at(100)
	granted := VolumeGrant{Status: VolumeGranted, Volume: "v", Epoch: 3, Expire: at(100)}
	request := VolumeRequest{Kind: SendReqVolLease, Epoch: 3}
	for _, tc := range []struct {
		name    string
		answers []VolumeGrant
		want    []RenewalStep
		// copies lists the objects still held at the end; renewed, those
		// whose lease the conversation moved to at(200).
		copies, renewed []ObjectID
	}{
		{
			name:    "plain grant",
			answers: []VolumeGrant{granted},
			want:    []RenewalStep{{}},
			copies:  []ObjectID{"a", "b"},
		},
		{
			name: "pending delivery",
			answers: []VolumeGrant{
				{Status: VolumePendingInvalidations, Volume: "v", Epoch: 3, Invalidate: []ObjectID{"a"}},
				granted,
			},
			want: []RenewalStep{
				{Next: VolumeRequest{Kind: SendAckInvalidate, Acked: []ObjectID{"a"}}, Dropped: []ObjectID{"a"}},
				{Folded: true},
			},
			copies: []ObjectID{"b"},
		},
		{
			name: "reconnection",
			answers: []VolumeGrant{
				{Status: VolumeNeedsRenewAll, Volume: "v", Epoch: 3},
				{Status: VolumePendingInvalidations, Volume: "v", Epoch: 3, Invalidate: []ObjectID{"b"},
					Renew: []ObjectGrant{{Object: "a", Version: 1, Expire: at(200)}}},
				granted,
			},
			want: []RenewalStep{
				{Next: VolumeRequest{Kind: SendRenewObjLeases, Held: []HeldObject{{"a", 1}, {"b", 1}}}},
				{Next: VolumeRequest{Kind: SendAckInvalidate, Acked: []ObjectID{"b"}}, Dropped: []ObjectID{"b"}},
				{},
			},
			copies:  []ObjectID{"a"},
			renewed: []ObjectID{"a"},
		},
		{
			name: "ack owed",
			answers: []VolumeGrant{
				{Status: VolumeAckOwed, Volume: "v", Epoch: 3, Owed: []ObjectID{"a"}},
				{Status: VolumePendingInvalidations, Volume: "v", Epoch: 3, Invalidate: []ObjectID{"a"}},
				{Status: VolumeAckOwed, Volume: "v", Epoch: 3, Owed: []ObjectID{"b"}},
				granted,
			},
			want: []RenewalStep{
				{Next: request},
				{Next: VolumeRequest{Kind: SendAckInvalidate, Acked: []ObjectID{"a"}}, Dropped: []ObjectID{"a"}},
				{Next: VolumeRequest{Kind: SendAckInvalidate, Acked: []ObjectID{"a"}}},
				{Folded: true},
			},
			copies: []ObjectID{"b"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHolder(0)
			grantCopy(t, h, "v", "a", 1)
			grantCopy(t, h, "v", "b", 1)
			r, req := h.RenewVolume("v", 3)
			if !reflect.DeepEqual(req, request) {
				t.Fatalf("first message = %+v, want a request presenting epoch 3", req)
			}
			for i, g := range tc.answers {
				if _, _, volOK, _ := h.Check("v", "b", now); volOK {
					t.Fatalf("volume lease valid before the grant, at answer %d", i)
				}
				if st := r.Step(g, holderAnchor); !reflect.DeepEqual(st, tc.want[i]) {
					t.Errorf("answer %d (%v): step = %+v, want %+v", i, g.Status, st, tc.want[i])
				}
			}
			if _, epoch, until, ok := h.Volume("v"); !ok || epoch != 3 || until != holderAnchor.Mono+99*time.Second {
				t.Errorf("volume lease = epoch %d until %v (%v), want epoch 3 until 100 s", epoch, until, ok)
			}
			var copies, renewed []ObjectID
			for _, oid := range []ObjectID{"a", "b"} {
				if _, _, expire, _, ok := h.Object(oid); ok {
					copies = append(copies, oid)
					if expire.Equal(at(200)) {
						renewed = append(renewed, oid)
					}
				}
			}
			if !reflect.DeepEqual(copies, tc.copies) || !reflect.DeepEqual(renewed, tc.renewed) {
				t.Errorf("copies %v (renewed %v), want %v (renewed %v)", copies, renewed, tc.copies, tc.renewed)
			}
		})
	}
}

// TestRenewalAgainstTable runs the Renewal against a Table in delayed mode
// with a discard window, through the shapes in the order a client meets
// them: first contact, a plain renewal, pending delivery, and a reconnection
// after the discard. Each conversation ends with a valid volume lease after
// its number of round trips, and only the pending delivery's grant is
// folded.
func TestRenewalAgainstTable(t *testing.T) {
	tb := newTable(t, delayedCfg(30*time.Second)) // volume leases 10 s, objects 100 s
	h := NewHolder(0)
	for _, tc := range []struct {
		name   string
		sec    float64
		before func()
		rounds int
		folded bool
	}{
		{"first contact", 0, func() {}, 3, false},
		{"plain", 11, func() { grantCopyFrom(t, tb, h, at(11), "a") }, 1, false},
		// c's lease lapsed at 21, so the write of a is queued for it.
		{"pending delivery", 30, func() { mustWrite(t, tb, at(25), "a") }, 2, true},
		// c's lease lapsed at 40 and it holds b past 40 + 30 s: discarded.
		{"reconnection", 80, func() { grantCopyFrom(t, tb, h, at(31), "b") }, 3, false},
	} {
		tc.before()
		now := at(tc.sec)
		r, req := h.RenewVolume("v", h.Epoch("v"))
		rounds, folded := 0, false
		for ; req.Kind != RenewalDone; rounds++ {
			var g VolumeGrant
			var err error
			switch req.Kind {
			case SendReqVolLease:
				g, err = tb.RequestVolume(now, "c", "v", req.Epoch, 1)
			case SendRenewObjLeases:
				g, err = tb.HandleRenewObjLeases(now, "c", "v", 1, req.Held)
			case SendAckInvalidate:
				g, err = tb.ConfirmVolume(now, "c", "v", 1, req.Acked)
			}
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			st := r.Step(g, anchor(now))
			req, folded = st.Next, st.Folded
		}
		if rounds != tc.rounds || folded != tc.folded {
			t.Errorf("%s: %d round trips, folded %v; want %d, folded %v", tc.name, rounds, folded, tc.rounds, tc.folded)
		}
		if _, _, volOK, _ := h.Check("v", "a", anchor(now).Mono); !volOK {
			t.Errorf("%s: no valid volume lease after the conversation", tc.name)
		}
	}
}

// grantCopyFrom runs one object-lease request of c's for oid against tb at
// now, installing the grant in h.
func grantCopyFrom(t *testing.T, tb *Table, h *Holder, now time.Time, oid ObjectID) {
	t.Helper()
	ver, token := h.begin(oid)
	g, err := tb.GrantObjectLease(now, "c", oid, ver)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.grantObject(token, "v", g, g.Data != nil, anchor(now)); err != nil {
		t.Fatal(err)
	}
}
