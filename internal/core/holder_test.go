package core

import (
	"fmt"
	"testing"
	"time"
)

// holderAnchor is the Anchor of every install below: one second into the
// holder's monotonic timeline, at(1) on the wall clock.
var holderAnchor = Anchor{Mono: time.Second, Wall: at(1)}

// grantCopy runs one object-lease request for oid under vid to completion,
// with data.
func grantCopy(t *testing.T, h *Holder, vid VolumeID, oid ObjectID, version Version) {
	t.Helper()
	_, token := h.begin(oid)
	g := ObjectGrant{Object: oid, Version: version, Expire: at(100), Data: []byte("x")}
	if err := h.grantObject(token, vid, g, true, holderAnchor); err != nil {
		t.Fatal(err)
	}
}

// TestHolderHeldSorted: RENEW_OBJ_LEASES lists the held copies in object
// order, so the same holder state always encodes to the same bytes.
func TestHolderHeldSorted(t *testing.T) {
	h := NewHolder(0)
	for i := 15; i >= 0; i-- {
		grantCopy(t, h, "v", ObjectID(fmt.Sprintf("o%02d", i)), Version(i+1))
	}
	grantCopy(t, h, "w", "other-volume", 1)
	held := h.held("v")
	if len(held) != 16 {
		t.Fatalf("Held = %d entries, want 16", len(held))
	}
	for i, e := range held {
		if want := (HeldObject{Object: ObjectID(fmt.Sprintf("o%02d", i)), Version: Version(i + 1)}); e != want {
			t.Errorf("Held[%d] = %+v, want %+v", i, e, want)
		}
	}
}

// TestHolderCases covers holder rules no client test reaches.
func TestHolderCases(t *testing.T) {
	now := 2 * time.Second // both leases below run to at(100)
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, h *Holder)
	}{
		{"check reads the asked volume's lease", func(t *testing.T, h *Holder) {
			h.grantVolume("v1", 0, at(100), holderAnchor)
			grantCopy(t, h, "v1", "o", 1)
			if _, _, volOK, objOK := h.Check("v2", "o", now); volOK || !objOK {
				t.Errorf("Check under an unleased volume = vol %v obj %v, want false true", volOK, objOK)
			}
			h.grantVolume("v2", 0, at(100), holderAnchor)
			if data, _, volOK, objOK := h.Check("v2", "o", now); !volOK || !objOK || string(data) != "x" {
				t.Errorf("Check under a leased volume = %q vol %v obj %v", data, volOK, objOK)
			}
		}},
		{"invalidation overtakes a first request", func(t *testing.T, h *Holder) {
			ver, token := h.begin("o")
			if ver != NoVersion {
				t.Errorf("begin without a copy reports version %d", ver)
			}
			h.Invalidate([]ObjectID{"o"})
			g := ObjectGrant{Object: "o", Version: 1, Expire: at(100), Data: []byte("stale")}
			if err := h.grantObject(token, "v", g, true, holderAnchor); err != nil {
				t.Fatalf("overtaken grant: %v", err)
			}
			if _, _, _, objOK := h.Check("v", "o", now); objOK {
				t.Error("overtaken grant installed")
			}
			if _, retry := h.begin("o"); retry == token {
				t.Error("a request begun after the invalidation carries the overtaken token")
			}
		}},
		{"renewal of an unknown object is a no-op", func(t *testing.T, h *Holder) {
			h.renewObject("o", 1, at(100), holderAnchor)
			if vols, objs := h.Snapshot(); len(vols)+len(objs) != 0 {
				t.Errorf("Snapshot after renewObject = %v %v, want empty", vols, objs)
			}
			if ver, _ := h.begin("o"); ver != NoVersion {
				t.Errorf("begin after renewObject reports version %d", ver)
			}
		}},
		{"epoch before the first grant", func(t *testing.T, h *Holder) {
			if e := h.Epoch("v"); e != NoEpoch {
				t.Errorf("Epoch before any grant = %d, want NoEpoch", e)
			}
			grantCopy(t, h, "v", "o", 1) // creates the volume entry, learns no epoch
			if e := h.Epoch("v"); e != NoEpoch {
				t.Errorf("Epoch after an object grant = %d, want NoEpoch", e)
			}
			h.grantVolume("v", 4, at(100), holderAnchor)
			if e := h.Epoch("v"); e != 4 {
				t.Errorf("Epoch after a grant = %d, want 4", e)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, NewHolder(0)) })
	}
}
