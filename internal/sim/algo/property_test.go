package algo

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// randomTrace builds a random but sorted trace: nClients clients reading
// nObjects objects across two servers with interleaved writes.
func randomTrace(seed int64, events int) trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	servers := []string{"s1", "s2"}
	objects := []string{"a", "b", "c", "d", "e"}
	clients := []string{"c1", "c2", "c3", "c4"}
	var tr trace.Trace
	sec := 0.0
	for i := 0; i < events; i++ {
		sec += rng.Float64() * 40
		srv := servers[rng.Intn(len(servers))]
		obj := objects[rng.Intn(len(objects))]
		if rng.Intn(10) < 8 {
			tr = append(tr, trace.Event{
				Time: clock.At(sec), Op: trace.OpRead,
				Client: clients[rng.Intn(len(clients))],
				Server: srv, Object: obj, Size: int64(rng.Intn(4096)),
			})
		} else {
			tr = append(tr, trace.Event{
				Time: clock.At(sec), Op: trace.OpWrite,
				Server: srv, Object: obj, Size: int64(rng.Intn(4096)),
			})
		}
	}
	tr.Sort()
	return tr
}

// strongAlgorithms builds every algorithm that promises strong consistency,
// each under terms short enough for random traces to expire its leases.
func strongAlgorithms() map[string]func(env *sim.Env) sim.Algorithm {
	return map[string]func(env *sim.Env) sim.Algorithm{
		"PollEachRead": func(env *sim.Env) sim.Algorithm { return NewPollEachRead(env) },
		"Callback":     func(env *sim.Env) sim.Algorithm { return NewCallback(env) },
		"Lease":        func(env *sim.Env) sim.Algorithm { return NewLease(env, 90*time.Second) },
		"Volume":       func(env *sim.Env) sim.Algorithm { return NewVolume(env, 15*time.Second, 200*time.Second) },
		"VolumeGroup4": func(env *sim.Env) sim.Algorithm { return NewVolumeGrouped(env, 15*time.Second, 200*time.Second, 4) },
		"DelayInf":     func(env *sim.Env) sim.Algorithm { return NewDelay(env, 15*time.Second, 200*time.Second, Forever) },
		"DelayD": func(env *sim.Env) sim.Algorithm {
			return NewDelay(env, 15*time.Second, 200*time.Second, 40*time.Second)
		},
	}
}

// TestAuditedAlgorithmsClean drives every algorithm through five fixed
// random traces and judges it by the recorder, which counts each read
// against the server's committed version: the strong algorithms must serve
// zero stale reads, and Poll may serve a stale read only within its poll
// interval of the object's last write.
func TestAuditedAlgorithmsClean(t *testing.T) {
	const pollT = 60 * time.Second
	mks := strongAlgorithms()
	mks["Poll"] = func(env *sim.Env) sim.Algorithm { return NewPoll(env, pollT) }
	for name, mk := range mks {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				tr := randomTrace(seed, 500)
				reads, stale := run(t, tr, mk).ReadStats()
				if reads == 0 {
					t.Fatalf("seed %d: no reads recorded", seed)
				}
				if name != "Poll" && stale != 0 {
					t.Errorf("seed %d: %d stale reads from a strong algorithm", seed, stale)
				}
				if name == "Poll" {
					if max := recentlyWritten(tr, pollT); stale > max {
						t.Errorf("seed %d: %d stale reads, but only %d reads follow a write by less than %v",
							seed, stale, max, pollT)
					}
				}
			}
		})
	}
}

// recentlyWritten counts the reads in tr that come less than window after
// a write to the same object: the only reads that a cache validated at
// most window ago can serve stale.
func recentlyWritten(tr trace.Trace, window time.Duration) int64 {
	lastWrite := map[[2]string]time.Time{}
	var n int64
	for _, e := range tr {
		key := [2]string{e.Server, e.Object}
		if e.Op == trace.OpWrite {
			lastWrite[key] = e.Time
			continue
		}
		if w, ok := lastWrite[key]; ok && e.Time.Sub(w) < window {
			n++
		}
	}
	return n
}

// TestQuickStrongAlgorithmsNeverStale: no strong algorithm serves a read
// older than the server's committed version on random traces. The recorder
// counts each read against that version, so this is the simulator's
// consistency oracle.
func TestQuickStrongAlgorithmsNeverStale(t *testing.T) {
	mks := strongAlgorithms()
	f := func(seed int64) bool {
		tr := randomTrace(seed, 400)
		for name, mk := range mks {
			if _, stale := run(t, tr, mk).ReadStats(); stale != 0 {
				t.Logf("seed %d: %s served %d stale reads", seed, name, stale)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// brokenVolume is a deliberately unsound variant of Volume: its writes
// acknowledge BeginWrite's Notify list on the holders' behalf instead of
// invalidating them, committing while holders retain valid leases and stale
// copies. The stale-read count must catch it.
type brokenVolume struct{ *Volume }

func (b brokenVolume) Name() string { return "BrokenVolume" }

func (b brokenVolume) HandleWrite(now time.Time, e trace.Event) {
	s := b.server(e.Server)
	ids := b.object(s, e.Object)
	for _, n := range must(s.table.BeginWrite(now, ids.oid)).Notify {
		check(s.table.AckWriteInvalidate(now, n.Client, ids.oid)) // never delivered
	}
	must(s.table.FinishWrite(now, ids.oid, nil, nil))
	b.env.Rec.Write(0)
}

// TestAuditorCatchesBrokenAlgorithm is the oracle's mutation guard: a write
// that commits without invalidating the holder leaves it a valid object
// lease on the old version, so its next read is stale and counted.
func TestAuditorCatchesBrokenAlgorithm(t *testing.T) {
	// tv=5s, t=100s: the write at 1s skips c1's invalidation; at 7s c1
	// renews its volume lease and serves its old copy under the object
	// lease granted at 0.
	tr := trace.Trace{rd(0, "c1", "a"), wr(1, "a"), rd(7, "c1", "a")}
	wantStale(t, run(t, tr, func(env *sim.Env) sim.Algorithm {
		return brokenVolume{NewVolume(env, 5*time.Second, 100*time.Second)}
	}), 1)
	wantStale(t, run(t, tr, func(env *sim.Env) sim.Algorithm {
		return NewVolume(env, 5*time.Second, 100*time.Second)
	}), 0)
}

func TestQuickDelayNeverExceedsVolumeMessages(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(seed, 400)
		vol := run(t, tr, func(env *sim.Env) sim.Algorithm {
			return NewVolume(env, 15*time.Second, 200*time.Second)
		})
		del := run(t, tr, func(env *sim.Env) sim.Algorithm {
			return NewDelay(env, 15*time.Second, 200*time.Second, Forever)
		})
		if del.Totals().Messages > vol.Totals().Messages {
			t.Logf("seed %d: Delay %d msgs > Volume %d", seed,
				del.Totals().Messages, vol.Totals().Messages)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickVolumeNeverBeatsLeaseAtSameT(t *testing.T) {
	// With identical object timeouts, Volume = Lease + volume renewals, so
	// Volume's message count is always >= Lease's.
	f := func(seed int64) bool {
		tr := randomTrace(seed, 400)
		lease := run(t, tr, func(env *sim.Env) sim.Algorithm {
			return NewLease(env, 200*time.Second)
		})
		vol := run(t, tr, func(env *sim.Env) sim.Algorithm {
			return NewVolume(env, 15*time.Second, 200*time.Second)
		})
		return vol.Totals().Messages >= lease.Totals().Messages
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGroupedVolumeCostsAtLeastSingle(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(seed, 300)
		single := run(t, tr, func(env *sim.Env) sim.Algorithm {
			return NewVolumeGrouped(env, 15*time.Second, 200*time.Second, 1)
		})
		grouped := run(t, tr, func(env *sim.Env) sim.Algorithm {
			return NewVolumeGrouped(env, 15*time.Second, 200*time.Second, 8)
		})
		return grouped.Totals().Messages >= single.Totals().Messages
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStateNeverNegativeAndDrains(t *testing.T) {
	// After the engine drains all timers, every lease has expired, so
	// lease-based algorithms must hold zero state (Delay may retain
	// unreachable-set entries; Callback retains callbacks).
	f := func(seed int64) bool {
		tr := randomTrace(seed, 300)
		for _, tc := range []struct {
			name    string
			mk      func(env *sim.Env) sim.Algorithm
			mayKeep bool
		}{
			{"lease", func(env *sim.Env) sim.Algorithm { return NewLease(env, 90*time.Second) }, false},
			{"volume", func(env *sim.Env) sim.Algorithm { return NewVolume(env, 15*time.Second, 90*time.Second) }, false},
			{"delay", func(env *sim.Env) sim.Algorithm { return NewDelay(env, 15*time.Second, 90*time.Second, 40*time.Second) }, true},
		} {
			rec := run(t, tr, tc.mk)
			for _, name := range rec.Servers() {
				ss, _ := rec.Server(name)
				if ss.State.Current() < 0 {
					t.Logf("seed %d: %s ended with negative state %d at %s",
						seed, tc.name, ss.State.Current(), name)
					return false
				}
				if !tc.mayKeep && ss.State.Current() != 0 {
					t.Logf("seed %d: %s retained %d bytes at %s after drain",
						seed, tc.name, ss.State.Current(), name)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPollCheaperThanPollEachRead(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(seed, 300)
		per := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewPollEachRead(env) })
		poll := run(t, tr, func(env *sim.Env) sim.Algorithm { return NewPoll(env, 60*time.Second) })
		return poll.Totals().Messages <= per.Totals().Messages
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMessageCountsDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(seed, 200)
		a := run(t, tr, func(env *sim.Env) sim.Algorithm {
			return NewDelay(env, 15*time.Second, 90*time.Second, 40*time.Second)
		})
		b := run(t, tr, func(env *sim.Env) sim.Algorithm {
			return NewDelay(env, 15*time.Second, 90*time.Second, 40*time.Second)
		})
		return a.Totals() == b.Totals()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupedVolumeDistinctRenewals(t *testing.T) {
	// Two objects hashed to different volumes need two renewals; the stock
	// single volume needs one.
	tr := trace.Trace{}
	// Find two objects in different groups of 8.
	var o1, o2 string
	for i := 0; i < 100 && o2 == ""; i++ {
		o := fmt.Sprintf("obj-%d", i)
		if o1 == "" {
			o1 = o
			continue
		}
		if fnv32(o)%8 != fnv32(o1)%8 {
			o2 = o
		}
	}
	if o2 == "" {
		t.Fatal("could not find objects in distinct groups")
	}
	tr = append(tr,
		trace.Event{Time: clock.At(0), Op: trace.OpRead, Client: "c", Server: "s", Object: o1, Size: 1},
		trace.Event{Time: clock.At(1), Op: trace.OpRead, Client: "c", Server: "s", Object: o2, Size: 1},
	)
	grouped := run(t, tr, func(env *sim.Env) sim.Algorithm {
		return NewVolumeGrouped(env, 10*time.Second, 100*time.Second, 8)
	})
	single := run(t, tr, func(env *sim.Env) sim.Algorithm {
		return NewVolume(env, 10*time.Second, 100*time.Second)
	})
	g := grouped.Totals().ByClass[metrics.MsgVolLeaseReq]
	s := single.Totals().ByClass[metrics.MsgVolLeaseReq]
	if g != 2 || s != 1 {
		t.Errorf("volume renewals: grouped=%d (want 2), single=%d (want 1)", g, s)
	}
}
