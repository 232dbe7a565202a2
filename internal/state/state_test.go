package state

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

var base = time.Unix(10000, 0)

// fixture builds a server dump with one volume "v" (epoch 3), objects
// o1/o2, clients c1 (holds o1+vol) and c2 (holds o2+vol), and a matching
// pair of client snapshots.
func fixture() (Dump, []Dump) {
	objExp := base.Add(time.Hour)
	volExp := base.Add(10 * time.Second)
	server := Dump{
		Role: RoleServer, Node: "srv", TakenAt: base,
		Server: &ServerSnapshot{
			TakenAt:   base,
			Connected: []core.ClientID{"c1", "c2"},
			Volumes: []core.VolumeSnapshot{{
				Volume: "v", Epoch: 3, TakenAt: base,
				VolumeLeases: []core.LeaseSnapshot{
					{Client: "c1", Granted: base, Expire: volExp},
					{Client: "c2", Granted: base, Expire: volExp},
				},
				Objects: []core.ObjectSnapshot{
					{Object: "o1", Version: 7, Holders: []core.LeaseSnapshot{{Client: "c1", Granted: base, Expire: objExp}}},
					{Object: "o2", Version: 2, Holders: []core.LeaseSnapshot{{Client: "c2", Granted: base, Expire: objExp}}},
				},
			}},
		},
	}
	mkClient := func(id core.ClientID, oid core.ObjectID, ver core.Version) Dump {
		return Dump{
			Role: RoleClient, Node: string(id), TakenAt: base,
			Clients: []ClientSnapshot{{
				Client: id, Server: "srv", TakenAt: base, Skew: 50 * time.Millisecond,
				Volumes: []core.ClientVolumeLease{{Volume: "v", Epoch: 3, Expire: volExp}},
				Objects: []core.ClientObjectLease{{Object: oid, Volume: "v", Version: ver, Expire: objExp, HasData: true}},
			}},
		}
	}
	return server, []Dump{mkClient("c1", "o1", 7), mkClient("c2", "o2", 2)}
}

func TestDiffCleanOnAgreement(t *testing.T) {
	server, clients := fixture()
	r := Diff(server, clients, Options{})
	if !r.Clean() {
		t.Fatalf("expected clean diff, got %+v", r.Divergences)
	}
	if r.ClientsChecked != 2 || r.LeasesChecked != 4 {
		t.Fatalf("checked %d clients / %d leases, want 2 / 4", r.ClientsChecked, r.LeasesChecked)
	}
}

func TestDiffClassifiesAllFourKinds(t *testing.T) {
	server, clients := fixture()
	srv := server.Server

	// holder-mismatch: c1 claims o1 but the server record is gone.
	srv.Volumes[0].Objects[0].Holders = nil
	// expiry-skew: c2's volume-lease expiry drifts 2s from the server's.
	clients[1].Clients[0].Volumes[0].Expire = srv.Volumes[0].VolumeLeases[1].Expire.Add(2 * time.Second)
	// ack-overdue: a pending ack 5s past its deadline.
	srv.Volumes[0].PendingAcks = []core.PendingAck{{Client: "c9", Object: "o2", Deadline: base.Add(-5 * time.Second)}}

	r := Diff(server, clients, Options{})
	kinds := map[string]int{}
	for _, d := range r.Divergences {
		kinds[d.Kind]++
	}
	if kinds[KindHolderMismatch] != 1 || kinds[KindExpirySkew] != 1 || kinds[KindAckOverdue] != 1 {
		t.Fatalf("kinds = %v", kinds)
	}

	// unreachable-caching: server declares c1 unreachable while c1 still
	// trusts its leases.
	server2, clients2 := fixture()
	server2.Server.Volumes[0].Unreachable = []core.ClientID{"c1"}
	// The protocol's effective view scrubs unreachable holders.
	server2.Server.Volumes[0].VolumeLeases = server2.Server.Volumes[0].VolumeLeases[1:]
	server2.Server.Volumes[0].Objects[0].Holders = nil
	r2 := Diff(server2, clients2, Options{})
	n := 0
	for _, d := range r2.Divergences {
		if d.Kind != KindUnreachableCaching {
			t.Fatalf("unexpected kind %s: %+v", d.Kind, d)
		}
		if d.Client != "c1" {
			t.Fatalf("wrong client: %+v", d)
		}
		n++
	}
	if n != 2 { // volume lease + object lease
		t.Fatalf("got %d unreachable-caching divergences, want 2", n)
	}
}

func TestDiffIgnoresExpiredClaims(t *testing.T) {
	server, clients := fixture()
	// Client's own clock is already past every expiry: it claims nothing,
	// so even an empty server table diffs clean.
	clients[0].Clients[0].TakenAt = base.Add(2 * time.Hour)
	clients[1].Clients[0].TakenAt = base.Add(2 * time.Hour)
	server.Server.Volumes[0].VolumeLeases = nil
	server.Server.Volumes[0].Objects[0].Holders = nil
	server.Server.Volumes[0].Objects[1].Holders = nil
	if r := Diff(server, clients, Options{}); !r.Clean() {
		t.Fatalf("expired claims should not diverge: %+v", r.Divergences)
	}
}

func TestDiffEpsilonTolerance(t *testing.T) {
	server, clients := fixture()
	clients[0].Clients[0].Objects[0].Expire = clients[0].Clients[0].Objects[0].Expire.Add(700 * time.Millisecond)
	if r := Diff(server, clients, Options{}); r.Clean() {
		t.Fatal("700ms skew over default ε should diverge")
	}
	if r := Diff(server, clients, Options{Epsilon: time.Second}); !r.Clean() {
		t.Fatalf("700ms skew under ε=1s should be tolerated: %+v", r.Divergences)
	}
}

func TestCount(t *testing.T) {
	server, clients := fixture()
	c := Count(server, 30*time.Second)
	if c.ObjectLeases != 2 || c.VolumeLeases != 2 {
		t.Fatalf("server counts: %+v", c)
	}
	if c.Expiring != 2 { // the two 10s volume leases, not the 1h object leases
		t.Fatalf("expiring = %d, want 2", c.Expiring)
	}
	cc := Count(clients[0], 30*time.Second)
	if cc.ObjectLeases != 1 || cc.VolumeLeases != 1 || cc.Expiring != 1 {
		t.Fatalf("client counts: %+v", cc)
	}

	// Unreachable with a live ack deadline counts as possibly-caching.
	server.Server.Volumes[0].Unreachable = []core.ClientID{"c3", "c4"}
	server.Server.Volumes[0].PendingAcks = []core.PendingAck{{Client: "c3", Object: "o1", Deadline: base.Add(time.Minute)}}
	c = Count(server, 30*time.Second)
	if c.Unreachable != 2 || c.UnreachableCached != 1 {
		t.Fatalf("unreachable counts: %+v", c)
	}
}

func TestFilterAndHandler(t *testing.T) {
	server, _ := fixture()
	src := NewSource(func() Dump { return server })

	// ?client=c1 keeps only c1's records.
	req := httptest.NewRequest("GET", "/debug/leases?client=c1", nil)
	rw := httptest.NewRecorder()
	Handler(src)(rw, req)
	if rw.Code != 200 {
		t.Fatalf("status %d: %s", rw.Code, rw.Body)
	}
	var got Dump
	if err := json.Unmarshal(rw.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	vs := got.Server.Volumes[0]
	if len(vs.VolumeLeases) != 1 || vs.VolumeLeases[0].Client != "c1" {
		t.Fatalf("volume leases: %+v", vs.VolumeLeases)
	}
	if len(vs.Objects) != 1 || vs.Objects[0].Object != "o1" {
		t.Fatalf("objects: %+v", vs.Objects)
	}

	// ?expiring=30s keeps only the short volume leases.
	d := Filter{Expiring: 30 * time.Second}.Apply(server)
	vs = d.Server.Volumes[0]
	if len(vs.VolumeLeases) != 2 || len(vs.Objects) != 0 {
		t.Fatalf("expiring filter: %d volume leases, %d objects", len(vs.VolumeLeases), len(vs.Objects))
	}

	// ?volume= with an unknown name empties the dump.
	d = Filter{Volume: []core.VolumeID{"nope"}}.Apply(server)
	if len(d.Server.Volumes) != 0 {
		t.Fatalf("unknown volume kept: %+v", d.Server.Volumes)
	}

	// Bad window is a 400.
	req = httptest.NewRequest("GET", "/debug/leases?expiring=bogus", nil)
	rw = httptest.NewRecorder()
	Handler(src)(rw, req)
	if rw.Code != 400 {
		t.Fatalf("status %d, want 400", rw.Code)
	}

	// Nil source serves the empty dump.
	req = httptest.NewRequest("GET", "/debug/leases", nil)
	rw = httptest.NewRecorder()
	Handler(nil)(rw, req)
	if rw.Code != 200 {
		t.Fatalf("nil source status %d", rw.Code)
	}
}

func TestRegisterGauges(t *testing.T) {
	server, _ := fixture()
	reg := obs.NewRegistry()
	Register(reg, "srv", NewSource(func() Dump { return server }), 30*time.Second)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`lease_state_object_leases{node="srv"} 2`,
		`lease_state_volume_leases{node="srv"} 2`,
		`lease_state_expiring{node="srv"} 2`,
		`lease_state_unreachable{node="srv"} 0`,
		`lease_state_unreachable_cached{node="srv"} 0`,
	} {
		if !strings.Contains(buf.String(), line+"\n") {
			t.Fatalf("missing %q in:\n%s", line, buf.String())
		}
	}
}

func TestDumpJSONRoundTrip(t *testing.T) {
	server, clients := fixture()
	server.Clients = clients[0].Clients
	b, err := json.Marshal(server)
	if err != nil {
		t.Fatal(err)
	}
	var got Dump
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !got.TakenAt.Equal(server.TakenAt) || got.Node != "srv" ||
		len(got.Server.Volumes) != 1 || len(got.Clients) != 1 {
		t.Fatalf("round trip mangled the dump: %+v", got)
	}
	if got.Clients[0].Skew != 50*time.Millisecond {
		t.Fatalf("skew lost: %v", got.Clients[0].Skew)
	}
}

// BenchmarkStateDisabled gates the disabled path: with introspection off
// (nil *Source) a snapshot costs zero allocations. Wired into the
// bench-disabled Make target alongside Emit/Span/Flight/Cost.
func BenchmarkStateDisabled(b *testing.B) {
	var src *Source
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := src.Snapshot()
		if d.Server != nil {
			b.Fatal("non-empty dump from nil source")
		}
	}
}
