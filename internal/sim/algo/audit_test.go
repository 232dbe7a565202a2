package algo

import (
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestAuditedAlgorithmsClean drives every algorithm through random traces
// with the consistency auditor attached: none may violate its declared
// invariant profile, the strong algorithms must serve zero stale reads, and
// Poll's observed staleness must respect its poll interval.
func TestAuditedAlgorithmsClean(t *testing.T) {
	const pollT = 60 * time.Second
	mks := map[string]func(env *sim.Env) sim.Algorithm{
		"PollEachRead": func(env *sim.Env) sim.Algorithm { return NewPollEachRead(env) },
		"Poll":         func(env *sim.Env) sim.Algorithm { return NewPoll(env, pollT) },
		"Callback":     func(env *sim.Env) sim.Algorithm { return NewCallback(env) },
		"Lease":        func(env *sim.Env) sim.Algorithm { return NewLease(env, 90*time.Second) },
		"Volume":       func(env *sim.Env) sim.Algorithm { return NewVolume(env, 15*time.Second, 200*time.Second) },
		"VolumeGroup4": func(env *sim.Env) sim.Algorithm { return NewVolumeGrouped(env, 15*time.Second, 200*time.Second, 4) },
		"DelayInf":     func(env *sim.Env) sim.Algorithm { return NewDelay(env, 15*time.Second, 200*time.Second, Forever) },
		"DelayD": func(env *sim.Env) sim.Algorithm {
			return NewDelay(env, 15*time.Second, 200*time.Second, 40*time.Second)
		},
	}
	strong := map[string]bool{
		"PollEachRead": true, "Callback": true, "Lease": true,
		"Volume": true, "VolumeGroup4": true, "DelayInf": true, "DelayD": true,
	}
	for name, mk := range mks {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				tr := randomTrace(seed, 500)
				_, aud := runAudited(t, tr, mk)
				if err := aud.Err(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if aud.Events() == 0 {
					t.Fatalf("seed %d: auditor saw no events — emission not wired", seed)
				}
				if strong[name] {
					if n := aud.StaleReads(); n != 0 {
						t.Errorf("seed %d: %d stale reads from a strong algorithm", seed, n)
					}
				}
				if name == "Poll" {
					if max := aud.MaxStaleness(); max > pollT {
						t.Errorf("seed %d: observed staleness %v exceeds poll interval %v", seed, max, pollT)
					}
				}
			}
		})
	}
}

// brokenVolume is a deliberately unsound variant of Volume: its writes
// acknowledge BeginWrite's Notify list on the holders' behalf instead of
// invalidating them, committing while holders retain valid leases and stale
// copies. The auditor must catch it.
type brokenVolume struct{ *Volume }

func (b brokenVolume) Name() string { return "BrokenVolume" }

func (b brokenVolume) HandleWrite(now time.Time, e trace.Event) {
	s := b.server(e.Server)
	ids := b.object(s, e.Object)
	for _, n := range must(s.table.BeginWrite(now, ids.oid)).Notify {
		check(s.table.AckWriteInvalidate(now, n.Client, ids.oid)) // never delivered
	}
	version := must(s.table.FinishWrite(now, ids.oid, nil, nil))
	b.env.Emit(obs.Event{Type: obs.EvWriteApplied, Object: ids.oid, Volume: ids.vid, Version: version, At: now})
	b.env.Rec.Write(0)
}

func TestAuditorCatchesBrokenAlgorithm(t *testing.T) {
	// tv=5s, t=100s: the write at 1s races c1's valid leases (write-safety);
	// the read at 7s returns data 6s stale, over the min(t,tv)=5s bound.
	tr := trace.Trace{
		{Time: clock.At(0), Op: trace.OpRead, Client: "c1", Server: "s", Object: "a", Size: 100},
		{Time: clock.At(1), Op: trace.OpWrite, Server: "s", Object: "a", Size: 100},
		{Time: clock.At(7), Op: trace.OpRead, Client: "c1", Server: "s", Object: "a", Size: 100},
	}
	_, aud := runAudited(t, tr, func(env *sim.Env) sim.Algorithm {
		return brokenVolume{NewVolume(env, 5*time.Second, 100*time.Second)}
	})
	if err := aud.Err(); err == nil {
		t.Fatal("auditor passed a deliberately broken algorithm")
	}
	byRule := aud.ByRule()
	if byRule[audit.RuleWriteSafety] == 0 {
		t.Errorf("write-safety violation not flagged; got %v", byRule)
	}
	if byRule[audit.RuleStalenessBound] == 0 {
		t.Errorf("staleness-bound violation not flagged; got %v", byRule)
	}
	if n := aud.StaleReads(); n == 0 {
		t.Error("stale read not counted")
	}
}
