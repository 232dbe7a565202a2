package server_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/state"
)

// checkDumpInvariants asserts the internal consistency every server state
// dump must have regardless of when it was taken: it is an effective view,
// so no lease may be attributed to a client the same volume lists as
// unreachable, and every lease interval must be well-formed
// (granted ≤ expire, both set).
func checkDumpInvariants(t *testing.T, d state.Dump) {
	t.Helper()
	if d.Server == nil {
		t.Error("server dump has no server section")
		return
	}
	for _, vs := range d.Server.Volumes {
		unreach := make(map[core.ClientID]bool, len(vs.Unreachable))
		for _, c := range vs.Unreachable {
			unreach[c] = true
		}
		check := func(kind string, obj core.ObjectID, l core.LeaseSnapshot) {
			if unreach[l.Client] {
				t.Errorf("volume %s: %s lease for %s/%s held by unreachable client %s",
					vs.Volume, kind, vs.Volume, obj, l.Client)
			}
			if l.Granted.IsZero() || l.Expire.IsZero() {
				t.Errorf("volume %s: %s lease for %s has zero timestamps: %+v",
					vs.Volume, kind, l.Client, l)
			}
			if l.Expire.Before(l.Granted) {
				t.Errorf("volume %s: %s lease for %s expires %s before grant %s",
					vs.Volume, kind, l.Client, l.Expire, l.Granted)
			}
		}
		for _, l := range vs.VolumeLeases {
			check("volume", "", l)
		}
		for _, o := range vs.Objects {
			for _, l := range o.Holders {
				check("object", o.Object, l)
			}
		}
	}
}

// TestStateSnapshotUnderChurn hammers StateSnapshot in a tight loop while
// writers update distinct objects, lease-holding readers re-read, and a
// nemesis cuts and heals one reader's link — with the consistency auditor
// attached (startServer fails the test on any protocol violation). Every
// snapshot must be internally consistent, and once the fleet quiesces the
// server and client views must diff clean. Run with -race: the snapshot
// path shares the shard mutexes with the write path.
func TestStateSnapshotUnderChurn(t *testing.T) {
	env := startServer(t, tableCfg(), nil)
	const vols, objsPerVol = 2, 2
	addVolumes(t, env.srv, vols, objsPerVol)

	readerIDs := []string{"sr1", "sr2", "sr3"}
	readers := make([]*client.Client, len(readerIDs))
	for i, id := range readerIDs {
		c, err := client.Dial(env.net, "srv:1", client.Config{
			ID:      core.ClientID(id),
			Skew:    5 * time.Millisecond,
			Timeout: time.Second,
			Redial:  true,
			Obs:     env.obs,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		readers[i] = c
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writers: distinct objects, so writes proceed in parallel across and
	// within shards.
	for i := 0; i < vols; i++ {
		for j := 0; j < objsPerVol; j++ {
			wg.Add(1)
			go func(oid core.ObjectID) {
				defer wg.Done()
				for k := 0; ; k++ {
					select {
					case <-stop:
						return
					default:
					}
					if _, _, err := env.write(env.srv, oid, fmt.Sprintf("w%d", k)); err != nil {
						t.Errorf("write %s: %v", oid, err)
						return
					}
				}
			}(core.ObjectID(fmt.Sprintf("o-%d-%d", i, j)))
		}
	}

	// Readers: keep picking leases back up so invalidation fan-out and
	// unreachable transitions stay busy. Errors are legitimate while
	// partitioned.
	for _, c := range readers {
		wg.Add(1)
		go func(c *client.Client) {
			defer wg.Done()
			for {
				for i := 0; i < vols; i++ {
					for j := 0; j < objsPerVol; j++ {
						select {
						case <-stop:
							return
						default:
						}
						vid := core.VolumeID(fmt.Sprintf("vol-%d", i))
						oid := core.ObjectID(fmt.Sprintf("o-%d-%d", i, j))
						c.Read(vid, oid) //nolint:errcheck
					}
				}
			}
		}(c)
	}

	// Nemesis: cut and heal the first reader's link.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cut := false
		for {
			select {
			case <-stop:
				if cut {
					env.net.Heal("sr1", "srv")
				}
				return
			case <-time.After(50 * time.Millisecond):
			}
			if cut {
				env.net.Heal("sr1", "srv")
			} else {
				env.net.Partition("sr1", "srv")
			}
			cut = !cut
		}
	}()

	// The probe under test: snapshots in a tight loop, each checked for
	// internal consistency.
	var snaps atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			checkDumpInvariants(t, env.srv.StateSnapshot())
			snaps.Add(1)
		}
	}()

	time.Sleep(800 * time.Millisecond)
	close(stop)
	wg.Wait()
	if snaps.Load() == 0 {
		t.Fatal("snapshot loop never ran")
	}

	// Quiesce: traffic stopped, links healed. One final read per reader and
	// object re-establishes every lease, then back-to-back snapshots of the
	// server and each client must diff clean.
	for _, c := range readers {
		for i := 0; i < vols; i++ {
			for j := 0; j < objsPerVol; j++ {
				vid := core.VolumeID(fmt.Sprintf("vol-%d", i))
				oid := core.ObjectID(fmt.Sprintf("o-%d-%d", i, j))
				if _, err := c.Read(vid, oid); err != nil {
					t.Fatalf("quiesce read %s: %v", oid, err)
				}
			}
		}
	}
	serverDump := env.srv.StateSnapshot()
	checkDumpInvariants(t, serverDump)
	var clientDumps []state.Dump
	for i, c := range readers {
		clientDumps = append(clientDumps, state.Dump{
			Role:    state.RoleClient,
			Node:    readerIDs[i],
			Clients: []state.ClientSnapshot{c.StateSnapshot()},
		})
	}
	rep := state.Diff(serverDump, clientDumps, state.Options{})
	if !rep.Clean() {
		t.Errorf("post-quiesce diff not clean: %+v", rep.Divergences)
	}
	if rep.LeasesChecked == 0 {
		t.Error("diff checked no leases")
	}
}
