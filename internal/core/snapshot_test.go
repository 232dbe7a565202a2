package core

import (
	"fmt"
	"testing"
	"time"
)

func TestSnapshotEffectiveView(t *testing.T) {
	cfg := Config{ObjectLease: time.Hour, VolumeLease: time.Minute, Mode: ModeEager}
	tbl, err := NewTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateVolume("v"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateObject("v", "o1", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateObject("v", "o2", []byte("b")); err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1000, 0)

	// c1 holds o1+volume; c2 holds o2+volume; c3 holds o1 but will be
	// marked unreachable without its lease record being scrubbed.
	for _, c := range []ClientID{"c1", "c2", "c3"} {
		oid := ObjectID("o1")
		if c == "c2" {
			oid = "o2"
		}
		if _, err := tbl.GrantObjectLease(base, c, oid, NoVersion); err != nil {
			t.Fatal(err)
		}
		if g, err := tbl.RequestVolumeLease(base, c, "v", 0); err != nil || g.Status != VolumeGranted {
			t.Fatalf("volume grant for %s: %v %v", c, g.Status, err)
		}
	}
	// Drive c3 unreachable via an unacked write on o2 (FinishWrite marks it
	// unreachable but does not scrub its o1 lease — the snapshot must).
	if _, err := tbl.BeginWrite(base.Add(time.Second), "o2"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AckWriteInvalidate(base.Add(time.Second), "c2", "o2"); err != nil { // c2 answers
		t.Fatal(err)
	}
	if _, err := tbl.FinishWrite(base.Add(time.Second), "o2", []byte("b2"), []ClientID{"c3"}); err != nil {
		t.Fatal(err)
	}

	now := base.Add(2 * time.Second)
	snaps := tbl.Snapshot(now)
	if len(snaps) != 1 {
		t.Fatalf("got %d volumes, want 1", len(snaps))
	}
	vs := snaps[0]
	if vs.Volume != "v" || !vs.TakenAt.Equal(now) {
		t.Fatalf("bad volume header: %+v", vs)
	}
	if len(vs.Unreachable) != 1 || vs.Unreachable[0] != "c3" {
		t.Fatalf("unreachable = %v, want [c3]", vs.Unreachable)
	}
	// Volume leases: c1 and c2 only (c3 excluded as unreachable).
	if got := clientsOf(vs.VolumeLeases); fmt.Sprint(got) != "[c1 c2]" {
		t.Fatalf("volume lease holders = %v, want [c1 c2]", got)
	}
	if len(vs.Objects) != 2 {
		t.Fatalf("got %d objects", len(vs.Objects))
	}
	o1 := vs.Objects[0]
	if o1.Object != "o1" {
		t.Fatalf("objects not sorted: %v", vs.Objects)
	}
	// o1's holders: c1 only — c3's surviving record is protocol-dead.
	if got := clientsOf(o1.Holders); fmt.Sprint(got) != "[c1]" {
		t.Fatalf("o1 holders = %v, want [c1]", got)
	}
	if vs.Objects[1].Version != 2 {
		t.Fatalf("o2 version = %d, want 2", vs.Objects[1].Version)
	}
	// Internal consistency: expiry >= grant, and grant times recorded.
	for _, l := range append(append([]LeaseSnapshot{}, vs.VolumeLeases...), o1.Holders...) {
		if l.Granted.IsZero() || l.Expire.Before(l.Granted) {
			t.Fatalf("bad lease timestamps: %+v", l)
		}
	}

	// After every lease expires, the snapshot is empty of holders.
	late := base.Add(2 * time.Hour)
	for _, vs := range tbl.Snapshot(late) {
		if len(vs.VolumeLeases) != 0 {
			t.Fatalf("expired volume leases still reported: %v", vs.VolumeLeases)
		}
		for _, o := range vs.Objects {
			if len(o.Holders) != 0 {
				t.Fatalf("expired object leases still reported: %v", o.Holders)
			}
		}
	}
}

func TestSnapshotSharesNoMemory(t *testing.T) {
	cfg := Config{ObjectLease: time.Hour, VolumeLease: time.Minute, Mode: ModeDelayed, InactiveDiscard: time.Hour}
	tbl, err := NewTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateVolume("v"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateObject("v", "o", nil); err != nil {
		t.Fatal(err)
	}
	base := time.Unix(0, 0)
	if _, err := tbl.GrantObjectLease(base, "c", "o", NoVersion); err != nil {
		t.Fatal(err)
	}
	snap := tbl.Snapshot(base.Add(time.Second))
	// Mutating the table after the snapshot must not change the copy.
	if _, err := tbl.GrantObjectLease(base.Add(2*time.Second), "d", "o", NoVersion); err != nil {
		t.Fatal(err)
	}
	if got := clientsOf(snap[0].Objects[0].Holders); fmt.Sprint(got) != "[c]" {
		t.Fatalf("snapshot mutated after the fact: %v", got)
	}
}

func clientsOf(ls []LeaseSnapshot) []ClientID {
	out := make([]ClientID, 0, len(ls))
	for _, l := range ls {
		out = append(out, l.Client)
	}
	return out
}

// BenchmarkTableSnapshot measures the cost of one full-table scan-and-copy:
// the price a /debug/leases scrape or flight-dump freeze pays while holding
// a shard mutex.
func BenchmarkTableSnapshot(b *testing.B) {
	cfg := Config{ObjectLease: time.Hour, VolumeLease: time.Minute, Mode: ModeEager}
	tbl, err := NewTable(cfg)
	if err != nil {
		b.Fatal(err)
	}
	base := time.Unix(0, 0)
	const volumes, objects, clients = 4, 64, 32
	for v := 0; v < volumes; v++ {
		vid := VolumeID(fmt.Sprintf("v%d", v))
		if err := tbl.CreateVolume(vid); err != nil {
			b.Fatal(err)
		}
		for o := 0; o < objects; o++ {
			oid := ObjectID(fmt.Sprintf("v%d-o%d", v, o))
			if err := tbl.CreateObject(vid, oid, nil); err != nil {
				b.Fatal(err)
			}
			for c := 0; c < clients; c++ {
				cid := ClientID(fmt.Sprintf("c%d", c))
				if _, err := tbl.GrantObjectLease(base, cid, oid, NoVersion); err != nil {
					b.Fatal(err)
				}
			}
		}
		for c := 0; c < clients; c++ {
			if _, err := tbl.RequestVolumeLease(base, ClientID(fmt.Sprintf("c%d", c)), vid, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	now := base.Add(time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if snaps := tbl.Snapshot(now); len(snaps) != volumes {
			b.Fatalf("got %d volumes", len(snaps))
		}
	}
}
