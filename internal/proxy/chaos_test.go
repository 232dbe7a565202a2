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
// be linearizable (internal/history), so no leaf observes versions going
// backwards, and after the dust settles everyone converges on the final
// value.
func TestProxyChaosMonotonicReads(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	h := buildHierarchy(t, func(cfg *proxy.Config) {
		cfg.Logf = t.Logf
	})

	const (
		leaves   = 3
		duration = 2500 * time.Millisecond
	)
	var (
		wg        sync.WaitGroup
		lastWrite atomic.Int64
		stop      = make(chan struct{})
		start     = time.Now()
		logs      = make([][]history.Op, 1+leaves) // the writer's, then each leaf's
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
			op := history.Op{Object: "a", Write: true, Tag: uint64(i), Call: time.Since(start)}
			v, _, err := h.origin.Write("a", []byte(fmt.Sprintf("val-%d", i)))
			op.Version, op.Return, op.OK = uint64(v), time.Since(start), err == nil
			logs[0] = append(logs[0], op)
			if err != nil {
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
		go func(cl *client.Client, log *[]history.Op) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				op := history.Op{Object: "a", Call: time.Since(start)}
				data, err := cl.Read("vol", "a")
				if err != nil {
					continue
				}
				op.Tag, op.Return, op.OK = uint64(parseVal(string(data))), time.Since(start), true
				// Of a run of reads of one value keep the first, which returned
				// earliest, and the last, called latest: a read between them is
				// stale or invented only if one of the two is.
				same := func(o history.Op) bool { return !o.Write && o.Tag == op.Tag }
				if n := len(*log); n >= 2 && same((*log)[n-1]) && same((*log)[n-2]) {
					(*log)[n-1] = op
				} else {
					*log = append(*log, op)
				}
			}
		}(cl, &logs[1+l])
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

	rep := history.Check(logs...)
	t.Log(rep)
	for _, a := range rep.Anomalies {
		t.Errorf("history: %v", a)
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
