package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// maxHeapBytesPerLease bounds what a lease record may weigh on the heap. It
// sits well above the readings (184 B per volume lease, 231 B per object
// lease, 257 B per object lease in delayed mode, on go1.24 amd64): map
// layouts differ between Go releases, and this is a tripwire for a record
// that grows by multiples, not a pin.
const maxHeapBytesPerLease = 1024

// TestTableHeapBytes weighs a table the way Figures 6–7's model cannot: one
// volume of 50 objects, 1000 clients each granted the volume lease and then
// a lease on every object, with the live heap read after a garbage
// collection before and after each stage. It logs the heap bytes per volume
// lease and per object lease beside the model's RecordBytes (Stats'
// StateBytes), in eager mode and in delayed mode with a finite discard time,
// whose table also indexes each client's object leases. The client IDs are
// built before the first reading: the table keeps the caller's strings.
func TestTableHeapBytes(t *testing.T) {
	const clients, objects = 1000, 50
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"eager", eagerCfg()}, {"delayed", delayedCfg(30 * time.Second)}} {
		t.Run(tc.name, func(t *testing.T) {
			tb, err := NewTable(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := tb.CreateVolume("v"); err != nil {
				t.Fatal(err)
			}
			oids := make([]ObjectID, objects)
			for i := range oids {
				oids[i] = ObjectID(fmt.Sprintf("o%02d", i))
				if err := tb.CreateObject("v", oids[i], nil); err != nil {
					t.Fatal(err)
				}
			}
			cids := make([]ClientID, clients)
			for i := range cids {
				cids[i] = ClientID(fmt.Sprintf("c%04d", i))
			}
			now := at(0)
			before := liveHeap()
			for _, c := range cids {
				mustGrant(t, tb, now, c, "v")
			}
			vols := liveHeap()
			for _, c := range cids {
				for _, o := range oids {
					mustObj(t, tb, now, c, o)
				}
			}
			objs := liveHeap()
			perVol := float64(vols-before) / clients
			perObj := float64(objs-vols) / (clients * objects)
			s := tb.Stats(now)
			model := float64(s.StateBytes) / float64(s.VolumeLeases+s.ObjectLeases)
			t.Logf("%s: %.0f heap B per volume lease, %.0f per object lease; the model charges %.0f",
				tc.name, perVol, perObj, model)
			if s.VolumeLeases != clients || s.ObjectLeases != clients*objects {
				t.Fatalf("Stats counts %d volume and %d object leases, want %d and %d",
					s.VolumeLeases, s.ObjectLeases, clients, clients*objects)
			}
			for _, w := range []struct {
				what  string
				bytes float64
			}{{"volume lease", perVol}, {"object lease", perObj}} {
				if w.bytes < model || w.bytes > maxHeapBytesPerLease {
					t.Errorf("a %s weighs %.0f heap bytes, want between the model's %.0f and %d",
						w.what, w.bytes, model, maxHeapBytesPerLease)
				}
			}
			runtime.KeepAlive(tb)
		})
	}
}

// liveHeap is the heap in use after a full garbage collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
