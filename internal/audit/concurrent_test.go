package audit

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestConcurrentPerVolumeStreams models the sharded server's emission
// pattern: each volume's events arrive in per-volume order (emitted under
// that shard's mutex), but streams from different volumes interleave
// arbitrarily across goroutines. The auditor must serialize them internally
// and report a clean run — per-volume order is the only ordering contract
// the live stack provides. Run under -race this also proves Observe is safe
// for concurrent sinks.
func TestConcurrentPerVolumeStreams(t *testing.T) {
	a := New(volumeCfg())
	const shards, rounds = 8, 50
	var wg sync.WaitGroup
	for k := 0; k < shards; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := core.ClientID(fmt.Sprintf("c-%d", k))
			o := core.ObjectID(fmt.Sprintf("o-%d", k))
			v := core.VolumeID(fmt.Sprintf("v-%d", k))
			now := t0
			a.Observe(obs.Event{Type: obs.EvVolLeaseGrant, Client: c, Volume: v,
				Expire: now.Add(10 * time.Second), At: now})
			a.Observe(obs.Event{Type: obs.EvObjLeaseGrant, Client: c, Object: o,
				Version: 1, Expire: now.Add(100 * time.Second), At: now})
			for i := 1; i <= rounds; i++ {
				now = now.Add(100 * time.Millisecond)
				a.Observe(obs.Event{Type: obs.EvCacheRead, Client: c, Object: o, Volume: v,
					Version: core.Version(i), At: now})
				a.Observe(obs.Event{Type: obs.EvInvalAcked, Client: c, Object: o, At: now})
				a.Observe(obs.Event{Type: obs.EvWriteApplied, Object: o, Volume: v,
					Version: core.Version(i + 1), At: now})
				// Re-arm both leases at the new version for the next round.
				a.Observe(obs.Event{Type: obs.EvVolLeaseGrant, Client: c, Volume: v,
					Expire: now.Add(10 * time.Second), At: now})
				a.Observe(obs.Event{Type: obs.EvObjLeaseGrant, Client: c, Object: o,
					Version: core.Version(i + 1), Expire: now.Add(100 * time.Second), At: now})
			}
		}(k)
	}
	wg.Wait()
	if err := a.Err(); err != nil {
		t.Fatalf("interleaved per-volume streams flagged: %v", err)
	}
	want := int64(shards * (2 + rounds*5))
	if got := a.Events(); got != want {
		t.Errorf("events = %d, want %d", got, want)
	}
}
