package proxy_test

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/proxy"
)

// TestProxyChaosMonotonicReads hammers the hierarchy: a writer updates the
// origin while leaves read through the proxy and a nemesis churns the
// leaf<->proxy links. The history the writer and the leaves recorded must
// be linearizable (buildHierarchy checks it at cleanup), so no leaf
// observes versions going backwards, and no origin write waits past the
// cut leaves' sub-lease bound; after the dust settles everyone converges on
// the final value.
func TestProxyChaosMonotonicReads(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	// A write waits out each cut leaf's sub-volume lease; a short one lets the
	// writer complete enough writes for the history to judge the reads by.
	h := buildHierarchy(t, func(cfg *proxy.Config) {
		cfg.Logf = t.Logf
		cfg.SubVolumeLease = 200 * time.Millisecond
	})

	const (
		leaves   = 3
		duration = 2500 * time.Millisecond
	)
	var (
		wg        sync.WaitGroup
		lastWrite atomic.Int64
		stop      = make(chan struct{})
	)

	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			case <-time.After(60 * time.Millisecond):
			}
			i++
			if _, _, err := h.write(h.origin, "a", fmt.Sprintf("val-%d", i)); err != nil {
				t.Errorf("origin write %d: %v", i, err)
				return
			}
			lastWrite.Store(int64(i))
		}
	}()

	ids := make([]string, leaves)
	for l := 0; l < leaves; l++ {
		id := fmt.Sprintf("chaos-leaf-%d", l)
		ids[l] = id
		cl, err := client.Dial(h.net, "proxy:1", client.Config{
			ID:      core.ClientID(id),
			Skew:    5 * time.Millisecond,
			Timeout: time.Second,
			Redial:  true,
			Obs:     h.obs,
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
				_, _ = h.read(cl, "a")
			}
		}(cl)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		cut := map[string]bool{}
		i := 0
		for {
			select {
			case <-stop:
				for id, c := range cut {
					if c {
						h.net.Heal(id, "proxy")
					}
				}
				return
			case <-time.After(150 * time.Millisecond):
			}
			id := ids[i%len(ids)]
			i++
			if cut[id] {
				h.net.Heal(id, "proxy")
				cut[id] = false
			} else {
				h.net.Partition(id, "proxy")
				cut[id] = true
			}
		}
	}()

	time.Sleep(duration)
	close(stop)
	wg.Wait()

	rep := history.Check(h.log)
	t.Log(rep)
	// buildHierarchy's check at cleanup judges the leaves' reads by the versions written meanwhile:
	// 32–36 writes complete in 2.5 s, with or without -race, when no write
	// waits out a cut leaf for long.
	if rep.Writes < 20 {
		t.Errorf("only %d origin writes in the history, too few versions to judge reads by", rep.Writes)
	}

	// Convergence through the proxy.
	final := h.dial(t, "chaos-final")
	data, err := final.Read("vol", "a")
	if err != nil {
		t.Fatalf("final read: %v", err)
	}
	if got, want := parseVal(string(data)), int(lastWrite.Load()); got != want {
		t.Errorf("final read = val-%d, want val-%d", got, want)
	}
}

func parseVal(s string) int {
	i := strings.LastIndexByte(s, '-')
	if i < 0 {
		return 0
	}
	n, _ := strconv.Atoi(s[i+1:])
	return n
}
