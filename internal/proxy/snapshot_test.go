package proxy_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/proxy"
	"repro/internal/server"
	"repro/internal/transport"
)

// TestSnapshotRootsShareNoMemory is the mutate-after-snapshot check of
// DESIGN.md §12's share-no-memory contract, for every snapshot root: the two
// pure tables (core.Table, core.Holder) and StateSnapshot on a server, a
// client, a pool and a proxy. For each root, writing through every slice and map of a
// snapshot must leave the next snapshot as it was, and changing the live
// state (a write and the invalidation it causes) must leave an earlier
// snapshot as it was while the next one sees the change. Everything runs on
// one simulated clock that never moves, so two snapshots of the same state
// are equal byte for byte.
func TestSnapshotRootsShareNoMemory(t *testing.T) {
	clk := clock.NewSimulated(clock.Epoch)
	now := clk.Now()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	tbl, err := core.NewTable(core.Config{ObjectLease: time.Hour, VolumeLease: time.Minute, Mode: core.ModeEager})
	must(err)
	must(tbl.CreateVolume("vol"))
	must(tbl.CreateObject("vol", "a", []byte("a")))
	must(tbl.CreateObject("vol", "b", []byte("b")))
	epoch, err := tbl.VolumeEpoch("vol")
	must(err)
	for _, c := range []core.ClientID{"c1", "c2"} {
		if g, err := tbl.RequestVolumeLease(now, c, "vol", epoch); err != nil || g.Status != core.VolumeGranted {
			t.Fatalf("volume lease for %s: %+v, %v", c, g, err)
		}
		for _, oid := range []core.ObjectID{"a", "b"} {
			_, err := tbl.GrantObjectLease(now, c, oid, core.NoVersion)
			must(err)
		}
	}

	h := core.NewHolder(5 * time.Millisecond)
	at := core.Anchor{Mono: clk.Mono(), Wall: now}
	r, _ := h.RenewVolume("vol", core.NoEpoch)
	r.Step(core.VolumeGrant{Status: core.VolumeGranted, Volume: "vol", Epoch: 1, Expire: now.Add(time.Minute)}, at)
	grant := func(oid core.ObjectID, v core.Version) error {
		r, st := h.Read("vol", oid, at.Mono)
		if st.Next != core.ReadSendReqObjLease {
			return fmt.Errorf("read of %s under a valid volume lease: step %v, want an object request", oid, st.Next)
		}
		_, err := r.Step(core.ObjectGrant{Object: oid, Version: v, Expire: now.Add(time.Hour), Data: []byte(oid)}, true, at)
		return err
	}
	must(grant("a", 1))
	must(grant("b", 1))

	net := transport.NewMemory()
	origin, err := server.New(server.Config{
		Name: "origin", Addr: "origin:1", Net: net, Clock: clk,
		Table: core.Config{ObjectLease: time.Hour, VolumeLease: time.Minute, Mode: core.ModeEager},
	})
	must(err)
	t.Cleanup(func() { origin.Close() })
	must(origin.AddVolume("vol"))
	must(origin.AddObject("vol", "a", []byte("a v1")))
	must(origin.AddObject("vol", "b", []byte("b v1")))
	px, err := proxy.New(proxy.Config{
		ID: "edge-proxy", Addr: "proxy:1", Net: net, Upstream: "origin:1", Volume: "vol", Clock: clk,
		SubObjectLease: 30 * time.Minute, SubVolumeLease: 30 * time.Second, Skew: 5 * time.Millisecond,
	})
	must(err)
	t.Cleanup(func() { px.Close() })
	leaf, err := client.Dial(net, "proxy:1", client.Config{ID: "leaf", Clock: clk, Skew: 5 * time.Millisecond})
	must(err)
	t.Cleanup(func() { leaf.Close() })
	pool, err := client.NewPool(net, client.Config{ID: "pool", Clock: clk, Skew: 5 * time.Millisecond})
	must(err)
	t.Cleanup(func() { pool.Close() })
	pool.AddRoute("vol", "origin:1")
	reads := func() error {
		for _, oid := range []core.ObjectID{"a", "b"} {
			if _, err := leaf.Read("vol", oid); err != nil {
				return err
			}
			if _, err := pool.Read("vol", oid); err != nil {
				return err
			}
		}
		return nil
	}
	must(reads())
	writes := 1
	write := func() error {
		writes++
		if _, _, err := leaf.Write("a", []byte(fmt.Sprintf("a v%d", writes))); err != nil {
			return err
		}
		return reads()
	}

	for _, root := range []struct {
		name   string
		snap   func() any
		change func() error
	}{
		{"core.Table.Snapshot", func() any { return tbl.Snapshot(now) }, func() error {
			plan, err := tbl.BeginWrite(now, "a")
			if err != nil {
				return err
			}
			for _, inv := range plan.Notify {
				if err := tbl.AckWriteInvalidate(now, inv.Client, "a"); err != nil {
					return err
				}
			}
			_, err = tbl.FinishWrite(now, "a", []byte("a v2"), nil)
			return err
		}},
		{"core.Holder.Snapshot", func() any {
			vols, objs := h.Snapshot()
			return struct {
				Vols []core.ClientVolumeLease
				Objs []core.ClientObjectLease
			}{vols, objs}
		}, func() error {
			h.Invalidate([]core.ObjectID{"a"})
			return grant("a", 2)
		}},
		{"Server.StateSnapshot", func() any { return origin.StateSnapshot() }, write},
		{"Client.StateSnapshot", func() any { return leaf.StateSnapshot() }, write},
		{"Pool.StateSnapshot", func() any { return pool.StateSnapshot() }, write},
		{"Proxy.StateSnapshot", func() any { return px.StateSnapshot() }, write},
	} {
		t.Run(root.name, func(t *testing.T) {
			want := jsonOf(t, root.snap())
			scribbled := scribble(root.snap())
			if jsonOf(t, scribbled) == want {
				t.Fatalf("nothing to write through in the snapshot: %s", want)
			}
			if got := jsonOf(t, root.snap()); got != want {
				t.Errorf("writing through a snapshot changed the live state:\n got %s\nwant %s", got, want)
			}

			first := root.snap()
			if err := root.change(); err != nil {
				t.Fatal(err)
			}
			if jsonOf(t, root.snap()) == want {
				t.Fatalf("the change did not show in a new snapshot: %s", want)
			}
			if got := jsonOf(t, first); got != want {
				t.Errorf("the live change reached an earlier snapshot:\n got %s\nwant %s", got, want)
			}
		})
	}
}

func jsonOf(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// scribble writes through every slice and map under snap: it changes each
// settable field of every slice element and clears every map. The top-level
// value is a copy, but the slices and maps in it are the snapshot's own.
func scribble(snap any) any {
	v := reflect.New(reflect.TypeOf(snap)).Elem()
	v.Set(reflect.ValueOf(snap))
	scribbleValue(v)
	return v.Interface()
}

func scribbleValue(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			scribbleValue(v.Elem())
		}
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			if v.CanSet() {
				v.Set(reflect.ValueOf(v.Interface().(time.Time).Add(time.Hour)))
			}
			return
		}
		for i := 0; i < v.NumField(); i++ {
			scribbleValue(v.Field(i))
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			scribbleValue(v.Index(i))
		}
	case reflect.Map:
		v.Clear()
	case reflect.String:
		if v.CanSet() {
			v.SetString(v.String() + "~")
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if v.CanSet() {
			v.SetInt(v.Int() + 1)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if v.CanSet() {
			v.SetUint(v.Uint() + 1)
		}
	case reflect.Bool:
		if v.CanSet() {
			v.SetBool(!v.Bool())
		}
	}
}
