package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/proxy"
	"repro/internal/server"
	"repro/internal/transport"
)

// object is one benchmark object and the oracle's knowledge of it: counter
// is the payload counter of the last write the server acknowledged. Each
// object belongs to exactly one driver, so no lock guards it.
type object struct {
	id      core.ObjectID
	tag     uint64 // driver and index, stamped into every payload
	counter uint64
}

// node is one client process of the topology.
type node struct {
	name string
	c    *client.Client
	tap  int16 // node id in the trace hub; -1 untraced
}

// lane is one driver's share of a phase: the scripted cycle it repeats.
type lane struct {
	vol     core.VolumeID
	readers []*node
	writer  *node // nil: the cycle is reads only
	objs    []*object
	order   []int // seeded visit order over objs
	pos     int
}

// topology is one built workload: real server, optional proxy and clients
// in this process, connected over loopback TCP with the batcher on.
type topology struct {
	spec   *spec
	origin *server.Server
	proxy  *proxy.Proxy
	nodes  []*node
	batch  *transport.BatchStats
	hub    *tapHub // nil untraced

	hot [drivers]lane
	// probe is a second lane per driver on read-only workloads: the driver's
	// own client re-reads a private object and a writer client overwrites it,
	// a fan-out-1 write. It runs after the timed segments and supplies the
	// write-class metrics there, so every workload reports every metric.
	probe [drivers]lane

	seedWord uint64
	template [drivers][]byte // seeded payload filler per driver
	buf      [drivers][]byte // payload scratch; Write encodes before returning
}

// network returns the Network the named node uses: plain batched TCP, or the
// trace hub's tap around it.
func (t *topology) network(name string) transport.Network {
	tcp := transport.TCP{Stats: t.batch}
	if t.hub == nil {
		return tcp
	}
	return t.hub.node(name, tcp)
}

func (t *topology) dial(name, addr string) (*node, error) {
	c, err := client.Dial(t.network(name), addr, client.Config{ID: core.ClientID(name), Skew: t.spec.skew})
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", name, err)
	}
	n := &node{name: name, c: c, tap: -1}
	if t.hub != nil {
		n.tap = t.hub.id(name)
	}
	t.nodes = append(t.nodes, n)
	return n, nil
}

// build starts the workload's processes, registers its objects and warms
// every lane with one full pass of its cycle. On error the partial topology
// is closed.
func build(s *spec, seed int64, hub *tapHub) (t *topology, err error) {
	t = &topology{spec: s, batch: &transport.BatchStats{}, hub: hub, seedWord: uint64(seed)*0x9e3779b97f4a7c15 + 1}
	defer func() {
		if err != nil {
			t.close()
			t = nil
		}
	}()
	t.origin, err = server.New(server.Config{
		Name: "origin", Addr: "127.0.0.1:0", Net: t.network("origin"),
		Table: core.Config{ObjectLease: s.objectLease, VolumeLease: longLease, Mode: core.ModeEager},
	})
	if err != nil {
		return t, err
	}
	vols := make([]core.VolumeID, s.volumes)
	for i := range vols {
		vols[i] = core.VolumeID(fmt.Sprintf("v%d", i))
		if err = t.origin.AddVolume(vols[i]); err != nil {
			return t, err
		}
	}
	target := t.origin.Addr()
	if s.proxy {
		t.proxy, err = proxy.New(proxy.Config{
			ID: "proxy", Addr: "127.0.0.1:0", Net: t.network("proxy"), Upstream: target,
			Volume: vols[0], SubObjectLease: s.objectLease, SubVolumeLease: longLease,
		})
		if err != nil {
			return t, err
		}
		target = t.proxy.Addr()
	}

	var shared []*node
	for i := 0; i < s.readers; i++ {
		n, err := t.dial(fmt.Sprintf("h%d", i), target)
		if err != nil {
			return t, err
		}
		shared = append(shared, n)
	}
	for d := 0; d < drivers; d++ {
		rng := rand.New(rand.NewSource(seed*drivers + int64(d)))
		t.template[d] = make([]byte, payloadBytes)
		rng.Read(t.template[d])
		t.buf[d] = make([]byte, payloadBytes)

		hot := &t.hot[d]
		hot.vol = vols[d%len(vols)]
		hot.readers = shared
		if len(shared) == 0 {
			own, err := t.dial(fmt.Sprintf("r%d", d), target)
			if err != nil {
				return t, err
			}
			hot.readers = []*node{own}
		}
		writer, err := t.dial(fmt.Sprintf("w%d", d), target)
		if err != nil {
			return t, err
		}
		if s.writes {
			hot.writer = writer
		}
		if err = t.addObjects(hot, d, "o", s.hot, rng); err != nil {
			return t, err
		}
		if !s.writes {
			probe := &t.probe[d]
			probe.vol, probe.readers, probe.writer = hot.vol, hot.readers, writer
			if err = t.addObjects(probe, d, "p", probeObjects, rng); err != nil {
				return t, err
			}
		}
	}

	// Warm: one pass of every lane, both drivers at once.
	var st [drivers]segStats
	t.parallel(func(d int) {
		t.run(d, &t.hot[d], loopOpts{cycles: len(t.hot[d].objs)}, &st[d])
		t.run(d, &t.probe[d], loopOpts{cycles: len(t.probe[d].objs)}, &st[d])
	})
	for d := range st {
		if st[d].failed > 0 {
			return t, fmt.Errorf("warm-up: %d of %d operations failed", st[d].failed, st[d].ops)
		}
	}
	return t, nil
}

// addObjects registers n objects for driver d's lane and seeds its visit
// order.
func (t *topology) addObjects(l *lane, d int, prefix string, n int, rng *rand.Rand) error {
	for i := 0; i < n; i++ {
		o := &object{
			id:  core.ObjectID(fmt.Sprintf("%s%d/%05d", prefix, d, i)),
			tag: uint64(d)<<56 | uint64(prefix[0])<<48 | uint64(i),
		}
		if err := t.origin.AddObject(l.vol, o.id, t.payload(d, o, 0)); err != nil {
			return err
		}
		l.objs = append(l.objs, o)
	}
	l.order = rng.Perm(n)
	return nil
}

// payload fills driver d's scratch buffer with object o's body at the given
// counter: counter, tag, a seeded check word, then the driver's filler.
func (t *topology) payload(d int, o *object, counter uint64) []byte {
	b := t.buf[d]
	copy(b, t.template[d])
	binary.LittleEndian.PutUint64(b[0:], counter)
	binary.LittleEndian.PutUint64(b[8:], o.tag)
	binary.LittleEndian.PutUint64(b[16:], t.checkWord(o, counter))
	return b
}

func (t *topology) checkWord(o *object, counter uint64) uint64 {
	x := t.seedWord ^ o.tag*0xbf58476d1ce4e5b9 ^ counter*0x94d049bb133111eb
	x ^= x >> 31
	return x * 0xd6e8feb86659fd93
}

// verify is the outside-in oracle: a read of o must return exactly the last
// write the server acknowledged. Objects are private to one driver and
// cycles are scripted, so "at least" and "exactly" coincide everywhere.
func (t *topology) verify(o *object, data []byte) (got uint64, ok bool) {
	if len(data) != payloadBytes {
		return 0, false
	}
	got = binary.LittleEndian.Uint64(data[0:])
	ok = got == o.counter &&
		binary.LittleEndian.Uint64(data[8:]) == o.tag &&
		binary.LittleEndian.Uint64(data[16:]) == t.checkWord(o, got)
	return got, ok
}

// parallel runs f once per driver, each on its own goroutine, and waits.
func (t *topology) parallel(f func(d int)) {
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			f(d)
		}(d)
	}
	wg.Wait()
}

// readCounts sums Client.Stats over the hot lanes' readers: reads served
// locally, and reads that went to the server.
func (t *topology) readCounts() (local, viaServer int64) {
	seen := map[*node]bool{}
	for d := range t.hot {
		for _, n := range t.hot[d].readers {
			if seen[n] {
				continue
			}
			seen[n] = true
			l, s, _ := n.c.Stats()
			local += l
			viaServer += s
		}
	}
	return local, viaServer
}

func (t *topology) close() {
	for _, n := range t.nodes {
		n.c.Close()
	}
	if t.proxy != nil {
		t.proxy.Close()
	}
	if t.origin != nil {
		t.origin.Close()
	}
}
