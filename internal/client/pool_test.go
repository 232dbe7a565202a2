package client_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/transport"
)

// poolEnv spins up n servers, each with one volume "vol-i" holding one
// object "obj".
func poolEnv(t *testing.T, n int) (*transport.Memory, []*server.Server) {
	t.Helper()
	net := transport.NewMemory()
	servers := make([]*server.Server, n)
	for i := range servers {
		srv, err := server.New(server.Config{
			Name: fmt.Sprintf("s%d", i),
			Addr: fmt.Sprintf("s%d:1", i),
			Net:  net,
			Table: core.Config{
				ObjectLease: time.Minute,
				VolumeLease: 5 * time.Second,
				Mode:        core.ModeEager,
			},
		})
		if err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		t.Cleanup(func() { srv.Close() })
		vid := core.VolumeID(fmt.Sprintf("vol-%d", i))
		if err := srv.AddVolume(vid); err != nil {
			t.Fatal(err)
		}
		if err := srv.AddObject(vid, "obj", []byte(fmt.Sprintf("data-%d", i))); err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
	}
	return net, servers
}

func newPool(t *testing.T, net *transport.Memory, n int) *client.Pool {
	t.Helper()
	p, err := client.NewPool(net, client.Config{ID: "browser", Skew: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	for i := 0; i < n; i++ {
		p.AddRoute(core.VolumeID(fmt.Sprintf("vol-%d", i)), fmt.Sprintf("s%d:1", i))
	}
	return p
}

func TestPoolRequiresID(t *testing.T) {
	if _, err := client.NewPool(transport.NewMemory(), client.Config{}); err == nil {
		t.Fatal("NewPool without ID succeeded")
	}
}

func TestPoolRoutesReadsAcrossServers(t *testing.T) {
	net, _ := poolEnv(t, 4)
	p := newPool(t, net, 4)
	for i := 0; i < 4; i++ {
		vid := core.VolumeID(fmt.Sprintf("vol-%d", i))
		data, err := p.Read(vid, "obj")
		if err != nil {
			t.Fatalf("Read(%s): %v", vid, err)
		}
		if want := fmt.Sprintf("data-%d", i); string(data) != want {
			t.Errorf("Read(%s) = %q, want %q", vid, data, want)
		}
	}
	if got := p.Connections(); got != 4 {
		t.Errorf("Connections = %d, want 4", got)
	}
	if got := len(p.Routes()); got != 4 {
		t.Errorf("Routes = %d, want 4", got)
	}
}

func TestPoolConnectionsAreLazy(t *testing.T) {
	net, _ := poolEnv(t, 3)
	p := newPool(t, net, 3)
	if got := p.Connections(); got != 0 {
		t.Fatalf("Connections before any read = %d", got)
	}
	if _, err := p.Read("vol-1", "obj"); err != nil {
		t.Fatal(err)
	}
	if got := p.Connections(); got != 1 {
		t.Errorf("Connections after one read = %d, want 1", got)
	}
}

func TestPoolNoRoute(t *testing.T) {
	net, _ := poolEnv(t, 1)
	p := newPool(t, net, 1)
	if _, err := p.Read("nowhere", "obj"); !errors.Is(err, client.ErrNoRoute) {
		t.Errorf("err = %v, want ErrNoRoute", err)
	}
}

func TestPoolWriteAndInvalidate(t *testing.T) {
	net, _ := poolEnv(t, 2)
	p := newPool(t, net, 2)
	if _, err := p.Read("vol-0", "obj"); err != nil {
		t.Fatal(err)
	}
	version, waited, err := p.Write("vol-0", "obj", []byte("updated"))
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if version != 2 {
		t.Errorf("version = %d, want 2", version)
	}
	if waited < 0 {
		t.Errorf("waited = %v, want >= 0", waited)
	}
	data, err := p.Read("vol-0", "obj")
	if err != nil || string(data) != "updated" {
		t.Errorf("Read after write = %q %v", data, err)
	}
	// The other server's volume is untouched.
	data, err = p.Read("vol-1", "obj")
	if err != nil || string(data) != "data-1" {
		t.Errorf("Read(vol-1) = %q %v", data, err)
	}
}

// TestPoolWriteReturnsAckWait covers the ack-wait plumbing: the duration the
// server blocked the write must reach the pool's caller instead of being
// discarded at the pool layer, and it is the very wait the server's
// lease_write_ack_wait_seconds histogram recorded.
func TestPoolWriteReturnsAckWait(t *testing.T) {
	net := transport.NewMemory()
	reg := obs.NewRegistry()
	srv, err := server.New(server.Config{
		Name: "s0", Addr: "s0:1", Net: net,
		Table: core.Config{ObjectLease: time.Minute, VolumeLease: 5 * time.Second, Mode: core.ModeEager},
		Obs:   &obs.Observer{Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if err := srv.AddVolume("vol-0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddObject("vol-0", "obj", []byte("data-0")); err != nil {
		t.Fatal(err)
	}
	p, err := client.NewPool(net, client.Config{ID: "writer", Skew: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	p.AddRoute("vol-0", "s0:1")

	// A second pool holds a lease on the object, so the write below must
	// actually wait for an invalidation acknowledgment.
	reader := newPool(t, net, 1)
	if _, err := reader.Read("vol-0", "obj"); err != nil {
		t.Fatal(err)
	}

	_, waited, err := p.Write("vol-0", "obj", []byte("updated"))
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if waited <= 0 {
		t.Errorf("waited = %v, want > 0 (a lease holder had to ack)", waited)
	}
	h := reg.Histogram(`lease_write_ack_wait_seconds{server="s0"}`)
	if h.Count() != 1 || h.Max() != waited {
		t.Errorf("server ack-wait histogram count=%d max=%v, want the one wait %v the pool returned",
			h.Count(), h.Max(), waited)
	}
}

func TestPoolServerFailureIsolated(t *testing.T) {
	net, servers := poolEnv(t, 2)
	p := newPool(t, net, 2)
	if _, err := p.Read("vol-0", "obj"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read("vol-1", "obj"); err != nil {
		t.Fatal(err)
	}
	// Partition server 0 and let leases lapse: vol-0 reads fail, vol-1
	// reads keep working.
	net.Partition("browser", "s0")
	time.Sleep(50 * time.Millisecond)
	// Force a renewal by cutting past the volume lease with a fresh pool
	// (faster than sleeping 5s): instead, verify that vol-1 still works and
	// the stale vol-0 copy remains Peek-able.
	if _, err := p.Read("vol-1", "obj"); err != nil {
		t.Errorf("healthy server affected by sibling partition: %v", err)
	}
	if _, ok := p.Peek("vol-0", "obj"); !ok {
		t.Error("Peek(vol-0) lost the cached copy")
	}
	_ = servers
}

func TestPoolStatsAggregate(t *testing.T) {
	net, _ := poolEnv(t, 3)
	p := newPool(t, net, 3)
	for i := 0; i < 3; i++ {
		vid := core.VolumeID(fmt.Sprintf("vol-%d", i))
		for r := 0; r < 4; r++ {
			if _, err := p.Read(vid, "obj"); err != nil {
				t.Fatal(err)
			}
		}
	}
	local, remote, _ := p.Stats()
	if remote != 3 {
		t.Errorf("server reads = %d, want 3 (one fetch per volume)", remote)
	}
	if local != 9 {
		t.Errorf("local reads = %d, want 9", local)
	}
}

func TestPoolConcurrentAccess(t *testing.T) {
	net, _ := poolEnv(t, 4)
	p := newPool(t, net, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vid := core.VolumeID(fmt.Sprintf("vol-%d", g%4))
			for i := 0; i < 20; i++ {
				if _, err := p.Read(vid, "obj"); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := p.Connections(); got != 4 {
		t.Errorf("Connections = %d, want 4 (racing dials reconciled)", got)
	}
}

func TestPoolCloseIdempotentAndTerminal(t *testing.T) {
	net, _ := poolEnv(t, 1)
	p := newPool(t, net, 1)
	if _, err := p.Read("vol-0", "obj"); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read("vol-0", "obj"); !errors.Is(err, client.ErrClosed) {
		t.Errorf("Read after close = %v, want ErrClosed", err)
	}
}

func TestPoolRegisterExportsSeries(t *testing.T) {
	net, _ := poolEnv(t, 2)
	p := newPool(t, net, 2)
	reg := obs.NewRegistry()
	p.Register(reg)

	// Two reads on different volumes: two connections, two server reads.
	for i := 0; i < 2; i++ {
		if _, err := p.Read(core.VolumeID(fmt.Sprintf("vol-%d", i)), "obj"); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	prom := sb.String()
	for _, want := range []string{
		`lease_pool_connections{client="browser"} 2`,
		`lease_pool_routes{client="browser"} 2`,
		`lease_pool_server_reads{client="browser"} 2`,
		`lease_pool_local_reads{client="browser"} 0`,
		`lease_pool_invalidations{client="browser"} 0`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q\n%s", want, prom)
		}
	}
}

// TestPoolScrapeMatchesStats: every series a scrape shows under the pool's
// identity counts the whole pool, as Stats does. The per-server clients
// share that identity, so series of their own would each claim to be the
// client "browser", and whichever registered last would stand for all.
func TestPoolScrapeMatchesStats(t *testing.T) {
	net, _ := poolEnv(t, 2)
	reg := obs.NewRegistry()
	p, err := client.NewPool(net, client.Config{ID: "browser", Skew: 5 * time.Millisecond, Obs: &obs.Observer{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	p.AddRoute("vol-0", "s0:1")
	p.AddRoute("vol-1", "s1:1")
	p.Register(reg)
	for _, vid := range []core.VolumeID{"vol-0", "vol-1", "vol-0"} {
		if _, err := p.Read(vid, "obj"); err != nil {
			t.Fatal(err)
		}
	}
	local, server, invals := p.Stats()
	if local != 1 || server != 2 {
		t.Fatalf("Stats = local %d, server %d; want 1, 2", local, server)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{"_local_reads": local, "_server_reads": server, "_invalidations": invals}
	poolSeries := 0
	for _, line := range strings.Split(sb.String(), "\n") {
		name, val, _ := strings.Cut(line, " ")
		if strings.HasPrefix(line, "#") || !strings.Contains(name, `client="browser"`) {
			continue
		}
		for counter, want := range counts {
			if !strings.Contains(name, counter) {
				continue
			}
			if val != fmt.Sprint(want) {
				t.Errorf("%s = %s, want %d as Pool.Stats says", name, val, want)
			}
			if strings.HasPrefix(name, "lease_pool_") {
				poolSeries++
			}
		}
	}
	if poolSeries != len(counts) {
		t.Errorf("found %d of the %d lease_pool_* counters:\n%s", poolSeries, len(counts), sb.String())
	}
}
