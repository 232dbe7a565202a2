// Webcache: a fleet of edge caches in front of one origin over real TCP,
// exercising the workload the paper's introduction motivates — browsers
// reading pages (bursts of objects from one volume) that occasionally
// change. It prints the message economics: how volume leases turn per-read
// validation into one short renewal per page view.
//
//	go run ./examples/webcache
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/server"
	"repro/internal/transport"
)

const (
	edges     = 5  // edge caches
	pages     = 4  // pages on the site
	perPage   = 5  // objects per page (html + embedded)
	pageViews = 40 // page views per edge
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The origin's network is tapped: cost accounting is the count of its
	// wire traffic.
	acct := cost.New("origin", time.Now)
	srv, err := server.New(server.Config{
		Name: "origin",
		Addr: "127.0.0.1:0",
		Net:  transport.TCP{Taps: []transport.Tap{acct}},
		Table: core.Config{
			ObjectLease: 5 * time.Minute,  // long object leases
			VolumeLease: 3 * time.Second,  // short volume leases
			Mode:        core.ModeDelayed, // queue invalidations for idle edges
		},
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	if err := srv.AddVolume("site"); err != nil {
		return err
	}
	var objects []core.ObjectID
	for p := 0; p < pages; p++ {
		for o := 0; o < perPage; o++ {
			id := core.ObjectID(fmt.Sprintf("/page%d/obj%d", p, o))
			objects = append(objects, id)
			if err := srv.AddObject("site", id, []byte(fmt.Sprintf("content of %s v1", id))); err != nil {
				return err
			}
		}
	}
	fmt.Printf("origin serving %d objects on %s\n", len(objects), srv.Addr())

	// A writer occasionally updates objects, like a CMS, and keeps the ack
	// waits its writes report.
	stopWriter := make(chan struct{})
	var writerWG sync.WaitGroup
	var writes int
	var totalWait, maxWait time.Duration
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; ; i++ {
			select {
			case <-stopWriter:
				return
			case <-time.After(150 * time.Millisecond):
			}
			oid := objects[rng.Intn(len(objects))]
			_, waited, err := srv.Write(oid, []byte(fmt.Sprintf("content of %s v%d", oid, i+2)))
			if err != nil {
				log.Printf("writer: %v", err)
				continue
			}
			writes++
			totalWait += waited
			maxWait = max(maxWait, waited)
		}
	}()

	// Edge caches browse: pick a page, read all its objects (one volume
	// lease covers the burst), think, repeat. Connections stay open until
	// the writer stops: a departed edge's leases would otherwise delay
	// writes until its volume lease ran out (which is correct, but not the
	// point of this example — see examples/newsfeed for that).
	clients := make([]*client.Client, edges)
	for e := range clients {
		cl, err := client.Dial(transport.TCP{}, srv.Addr(), client.Config{
			ID: core.ClientID(fmt.Sprintf("edge-%d", e)),
		})
		if err != nil {
			return err
		}
		defer cl.Close()
		clients[e] = cl
	}
	var wg sync.WaitGroup
	for e := 0; e < edges; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			cl := clients[e]
			rng := rand.New(rand.NewSource(int64(e)))
			for v := 0; v < pageViews; v++ {
				p := rng.Intn(pages)
				for o := 0; o < perPage; o++ {
					oid := core.ObjectID(fmt.Sprintf("/page%d/obj%d", p, o))
					if _, err := cl.Read("site", oid); err != nil {
						log.Printf("edge-%d read %s: %v", e, oid, err)
					}
				}
				time.Sleep(time.Duration(rng.Intn(40)) * time.Millisecond)
			}
			local, remote, invals := cl.Stats()
			fmt.Printf("edge-%d: %3d reads served locally, %3d server round trips, %2d invalidations\n",
				e, local, remote, invals)
		}(e)
	}
	wg.Wait()
	close(stopWriter)
	writerWG.Wait()

	tot := acct.Totals()
	st := srv.Stats()
	fmt.Printf("\norigin: %d protocol messages for %d reads across %d edges\n",
		tot.MessagesSent+tot.MessagesRecv, edges*pageViews*perPage, edges)
	fmt.Printf("origin: %d writes, mean ack wait %v, max %v\n",
		writes, totalWait/time.Duration(max(writes, 1)), maxWait)
	fmt.Printf("origin state: %d object leases, %d volume leases, %d pending invalidations (%d bytes)\n",
		st.ObjectLeases, st.VolumeLeases, st.PendingInvalidation, st.StateBytes)
	return nil
}
