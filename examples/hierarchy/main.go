// Hierarchy: a two-level volume-lease caching tree — the deployment the
// paper's introduction motivates ("aggressive caching or replication
// hierarchies"). An origin serves a regional proxy, which serves two leaf
// caches. The demo shows:
//
//   - reads absorbed level by level (the origin sees one fetch however many
//     leaves read),
//
//   - a write at the origin completing only after the WHOLE subtree has
//     dropped the object (the proxy acknowledges upstream only after its
//     own clients acknowledged), and
//
//   - the failure bound composing: cutting a leaf off delays the origin's
//     write by the leaf's short volume sub-lease, not its long object
//     sub-lease.
//
//     go run ./examples/hierarchy
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/proxy"
	"repro/internal/server"
	"repro/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The network is tapped: cost accounting tallies every connection's
	// frames, among them the proxy's one connection to the origin.
	net := transport.NewMemory()
	acct := cost.New("tree", time.Now)
	net.Taps = []transport.Tap{acct}

	origin, err := server.New(server.Config{
		Name: "origin",
		Addr: "origin:1",
		Net:  net,
		Table: core.Config{
			ObjectLease: time.Hour,       // long object leases at the top
			VolumeLease: 2 * time.Second, // short volume leases bound failures
			Mode:        core.ModeEager,
		},
		MsgTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer origin.Close()
	if err := origin.AddVolume("site"); err != nil {
		return err
	}
	if err := origin.AddObject("site", "/front-page", []byte("front page v1")); err != nil {
		return err
	}

	px, err := proxy.New(proxy.Config{
		ID:             "regional-cache",
		Addr:           "proxy:1",
		Net:            net,
		Upstream:       "origin:1",
		Volume:         "site",
		SubObjectLease: 30 * time.Minute,
		SubVolumeLease: time.Second,
		MsgTimeout:     50 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer px.Close()

	leaves := make([]*client.Client, 2)
	for i := range leaves {
		leaves[i], err = client.Dial(net, "proxy:1", client.Config{
			ID: core.ClientID(fmt.Sprintf("leaf-%d", i)),
		})
		if err != nil {
			return err
		}
		defer leaves[i].Close()
	}

	// Both leaves read; the origin transfers the object exactly once.
	var fromOrigin [2]int64
	for i, leaf := range leaves {
		data, err := leaf.Read("site", "/front-page")
		if err != nil {
			return err
		}
		fmt.Printf("leaf-%d reads: %s\n", i, data)
		for _, c := range acct.Snapshot().Conns {
			if c.Remote == "origin:1" { // the proxy's end of its upstream connection
				fromOrigin[i] = c.BytesRecv
			}
		}
	}
	fmt.Printf("origin had sent %d bytes after the first read, %d after the second (proxy absorbed the second fetch)\n\n",
		fromOrigin[0], fromOrigin[1])

	// A write at the origin: it completes only after the proxy has
	// invalidated both leaves and relayed their acknowledgments.
	version, waited, err := origin.Write("/front-page", []byte("front page v2"))
	if err != nil {
		return err
	}
	fmt.Printf("origin wrote v%d; waited %v for the subtree to drop v1\n", version, waited)
	for i, leaf := range leaves {
		data, err := leaf.Read("site", "/front-page")
		if err != nil {
			return err
		}
		_, _, invals := leaf.Stats()
		fmt.Printf("leaf-%d now reads: %s (after %d invalidation)\n", i, data, invals)
	}

	// Cut off leaf-1. The origin's next write is delayed only by leaf-1's
	// short volume sub-lease (~1s), not its 30-minute object sub-lease.
	fmt.Println("\npartitioning leaf-1 from the proxy...")
	net.Partition("leaf-1", "proxy")
	start := time.Now()
	if _, _, err := origin.Write("/front-page", []byte("front page v3")); err != nil {
		return err
	}
	fmt.Printf("origin wrote v3 in %v despite the dead leaf (bounded by the volume sub-lease)\n",
		time.Since(start).Round(10*time.Millisecond))

	if data, err := leaves[0].Read("site", "/front-page"); err == nil {
		fmt.Printf("leaf-0 reads: %s\n", data)
	}
	time.Sleep(1100 * time.Millisecond)
	if _, err := leaves[1].Read("site", "/front-page"); err != nil {
		fmt.Println("leaf-1 (partitioned): consistent read refused, never stale")
	}
	net.Heal("leaf-1", "proxy")
	if data, err := leaves[1].Read("site", "/front-page"); err == nil {
		fmt.Printf("leaf-1 after heal: %s (resynchronized via the proxy)\n", data)
	}
	st := px.Stats()
	fmt.Printf("\nproxy state: %d object sub-leases, %d volume sub-leases, %d unreachable\n",
		st.ObjectLeases, st.VolumeLeases, st.UnreachableClients)
	return nil
}
