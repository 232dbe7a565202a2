package server_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/wire"
)

// addVolumes registers extra volumes vol-0..vol-(n-1), each with objects
// o-<i>-0..o-<i>-(objs-1).
func addVolumes(t *testing.T, srv *server.Server, n, objs int) {
	t.Helper()
	for i := 0; i < n; i++ {
		vid := core.VolumeID(fmt.Sprintf("vol-%d", i))
		if err := srv.AddVolume(vid); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < objs; j++ {
			oid := core.ObjectID(fmt.Sprintf("o-%d-%d", i, j))
			if err := srv.AddObject(vid, oid, []byte("init")); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestConcurrentWritesDistinctObjects drives writers at distinct objects
// across four volume shards while lease-holding readers keep re-reading.
// The consistency auditor taps every event (startServer fails the test on
// any invariant violation at cleanup), so this is the live proof that
// per-shard locking and concurrent ack collection preserve the protocol:
// every read is judged for validity, every write for safety.
func TestConcurrentWritesDistinctObjects(t *testing.T) {
	env := startServer(t, tableCfg(), nil)
	const vols, objsPerVol, writesPerObj = 4, 2, 5
	addVolumes(t, env.srv, vols, objsPerVol)

	// Readers hold leases on every object so each write has invalidations
	// to fan out and acknowledgments to collect.
	readers := []string{"r1", "r2"}
	for _, id := range readers {
		c := env.dial(t, id)
		for i := 0; i < vols; i++ {
			for j := 0; j < objsPerVol; j++ {
				vid := core.VolumeID(fmt.Sprintf("vol-%d", i))
				oid := core.ObjectID(fmt.Sprintf("o-%d-%d", i, j))
				if _, err := c.Read(vid, oid); err != nil {
					t.Fatalf("reader %s: Read(%s): %v", id, oid, err)
				}
			}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, vols*objsPerVol)
	for i := 0; i < vols; i++ {
		for j := 0; j < objsPerVol; j++ {
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				oid := core.ObjectID(fmt.Sprintf("o-%d-%d", i, j))
				for k := 0; k < writesPerObj; k++ {
					data := []byte(fmt.Sprintf("w-%d-%d-%d", i, j, k))
					if _, _, err := env.srv.Write(oid, data); err != nil {
						errs <- fmt.Errorf("write %s #%d: %w", oid, k, err)
						return
					}
				}
			}(i, j)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	for i := 0; i < vols; i++ {
		for j := 0; j < objsPerVol; j++ {
			oid := core.ObjectID(fmt.Sprintf("o-%d-%d", i, j))
			version, data, err := env.srv.Read(oid)
			if err != nil {
				t.Fatalf("Read(%s): %v", oid, err)
			}
			if want := core.Version(1 + writesPerObj); version != want {
				t.Errorf("%s: version = %d, want %d", oid, version, want)
			}
			if want := fmt.Sprintf("w-%d-%d-%d", i, j, writesPerObj-1); string(data) != want {
				t.Errorf("%s: data = %q, want %q", oid, data, want)
			}
		}
	}
}

// TestSameObjectWritesSerialize checks that per-object write serialization
// survived the removal of the global write mutex: concurrent writes to one
// object must produce distinct consecutive versions, and the surviving data
// must be the payload of whichever write committed last.
func TestSameObjectWritesSerialize(t *testing.T) {
	env := startServer(t, tableCfg(), nil)
	c := env.dial(t, "reader")
	if _, err := env.read(c, "a"); err != nil {
		t.Fatal(err)
	}

	const writers = 8
	var (
		wg sync.WaitGroup
		mu sync.Mutex
		// byVersion maps each returned version to the payload that write
		// installed; interleaved (unserialized) writes would tear this.
		byVersion = make(map[core.Version]string)
	)
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			data := fmt.Sprintf("writer-%d", w)
			version, _, err := env.write(env.srv, "a", data)
			if err != nil {
				errs <- err
				return
			}
			mu.Lock()
			if prev, dup := byVersion[version]; dup {
				errs <- fmt.Errorf("version %d assigned to both %q and %q", version, prev, data)
			}
			byVersion[version] = data
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if len(byVersion) != writers {
		t.Fatalf("distinct versions = %d, want %d", len(byVersion), writers)
	}
	final, data, err := env.srv.Read("a")
	if err != nil {
		t.Fatal(err)
	}
	if want := core.Version(1 + writers); final != want {
		t.Errorf("final version = %d, want %d", final, want)
	}
	if want := byVersion[final]; string(data) != want {
		t.Errorf("final data = %q, want %q (payload of version %d)", data, want, final)
	}
}

// slowInvalNet wraps a Memory network so that every server-sent Invalidate
// stalls for a fixed delay before delivery — a transport that is healthy
// for every message except invalidation fan-out.
type slowInvalNet struct {
	*transport.Memory
	delay time.Duration
}

func (n slowInvalNet) Listen(addr string) (transport.Listener, error) {
	l, err := n.Memory.Listen(addr)
	if err != nil {
		return nil, err
	}
	return slowInvalListener{Listener: l, delay: n.delay}, nil
}

type slowInvalListener struct {
	transport.Listener
	delay time.Duration
}

func (l slowInvalListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return slowInvalConn{Conn: c, delay: l.delay}, nil
}

type slowInvalConn struct {
	transport.Conn
	delay time.Duration
}

func (c slowInvalConn) Send(m wire.Message) error {
	if _, ok := m.(wire.Invalidate); ok {
		time.Sleep(c.delay)
	}
	return c.Conn.Send(m)
}

// TestWriteDeadlineNotExtendedBySlowFanout is the regression test for the
// ack-wait deadline drift: the wait bound min(t, t_v) must be measured from
// the moment the write began, not restarted after the invalidation fan-out.
// With an invalidation path slower than the whole lease bound, the write
// must still return once the bound passes (marking the client unreachable).
// The drifting implementation armed the timeout after the blocking sends,
// waiting sendDelay + bound ≈ 1.1s; the fix returns at ≈ bound (≤ 400ms
// volume lease here).
func TestWriteDeadlineNotExtendedBySlowFanout(t *testing.T) {
	const sendDelay = 700 * time.Millisecond
	env := startServer(t, tableCfg(), func(cfg *server.Config) {
		cfg.Net = slowInvalNet{Memory: cfg.Net.(*transport.Memory), delay: sendDelay}
	})
	c := env.dial(t, "holder")
	if _, err := env.read(c, "a"); err != nil {
		t.Fatal(err)
	}

	begin := time.Now()
	version, waited, err := env.write(env.srv, "a", "v2")
	elapsed := time.Since(begin)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if version != 2 {
		t.Errorf("version = %d, want 2", version)
	}
	// The volume lease (400ms) dominates the bound; give generous slack for
	// scheduling but stay far below the drifting sendDelay + bound figure.
	if elapsed >= sendDelay {
		t.Errorf("write took %v (waited %v); deadline drifted past the lease bound (~400ms)", elapsed, waited)
	}
}
