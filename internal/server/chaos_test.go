package server_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/server"
)

// TestChaosMonotonicReads runs readers, a writer, and a partition-churning
// nemesis concurrently for a few seconds and verifies the protocol's core
// guarantees under fire:
//
//  1. the history the writer and readers recorded (startServer checks it
//     at cleanup) is linearizable: no read returns a value older than one
//     that was current when it was called, which per-reader monotonicity
//     follows from, and no write waits past the server's bound, and
//  2. convergence: after the churn stops and leases cycle, every reader
//     sees the final value.
//
// Readers use Redial so nemesis-induced connection drops do not end their
// run; Read errors during partitions are expected (strong consistency means
// refusing, never lying).
func TestChaosMonotonicReads(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	table := core.Config{
		ObjectLease: 2 * time.Second,
		VolumeLease: 150 * time.Millisecond,
		Mode:        core.ModeDelayed, // exercise pending queues under churn
	}
	env := startServer(t, table, func(cfg *server.Config) {
		cfg.MsgTimeout = 30 * time.Millisecond
		cfg.SweepInterval = 50 * time.Millisecond
	})

	const (
		readers  = 5
		duration = 3 * time.Second
	)
	var (
		wg        sync.WaitGroup
		lastWrite atomic.Int64
		stop      = make(chan struct{})
	)

	// Writer: versioned payloads val-1, val-2, ...
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			case <-time.After(40 * time.Millisecond):
			}
			i++
			if _, _, err := env.write(env.srv, "a", fmt.Sprintf("val-%d", i)); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			lastWrite.Store(int64(i))
		}
	}()

	// Readers with redial.
	readerIDs := make([]string, readers)
	for r := 0; r < readers; r++ {
		id := fmt.Sprintf("chaos-%d", r)
		readerIDs[r] = id
		cl, err := client.Dial(env.net, "srv:1", client.Config{
			ID:      core.ClientID(id),
			Skew:    5 * time.Millisecond,
			Timeout: time.Second,
			Redial:  true,
			Obs:     env.obs,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		wg.Add(1)
		go func(cl *client.Client) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Partitions make errors legitimate: strong consistency means
				// refusing, never lying.
				_, _ = env.read(cl, "a")
			}
		}(cl)
	}

	// Nemesis: randomly cut and heal reader<->server links.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		cut := map[string]bool{}
		for {
			select {
			case <-stop:
				for id, isCut := range cut {
					if isCut {
						env.net.Heal(id, "srv")
					}
				}
				return
			case <-time.After(100 * time.Millisecond):
			}
			id := readerIDs[rng.Intn(len(readerIDs))]
			if cut[id] {
				env.net.Heal(id, "srv")
				cut[id] = false
			} else {
				env.net.Partition(id, "srv")
				cut[id] = true
			}
		}
	}()

	time.Sleep(duration)
	close(stop)
	wg.Wait()

	// Convergence: a fresh client must see the final committed write.
	final := env.dial(t, "chaos-final")
	data, err := final.Read("vol", "a")
	if err != nil {
		t.Fatalf("final read: %v", err)
	}
	if got, want := chaosParse(string(data)), int(lastWrite.Load()); got != want {
		t.Errorf("final read = val-%d, want val-%d", got, want)
	}
}

func chaosParse(s string) int {
	i := strings.LastIndexByte(s, '-')
	if i < 0 {
		return 0
	}
	n, _ := strconv.Atoi(s[i+1:])
	return n
}
