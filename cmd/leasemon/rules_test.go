package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/server"
	"repro/internal/transport"
)

// ruleFixtures are pairs of /metrics bodies taken elapsed apart. Each names
// the one rule it must fire, or "" for a near miss that must fire none.
var ruleFixtures = []struct {
	name, fires   string
	before, after string
	elapsed       time.Duration
}{
	{"ack-wait", "ack-wait",
		"lease_write_ack_wait_seconds_sum{server=\"s\"} 1\nlease_write_ack_wait_seconds_count{server=\"s\"} 10\n",
		"lease_write_ack_wait_seconds_sum{server=\"s\"} 3.5\nlease_write_ack_wait_seconds_count{server=\"s\"} 15\n", time.Second},
	{"ack-wait, four writes", "",
		"lease_write_ack_wait_seconds_sum{server=\"s\"} 1\nlease_write_ack_wait_seconds_count{server=\"s\"} 10\n",
		"lease_write_ack_wait_seconds_sum{server=\"s\"} 9\nlease_write_ack_wait_seconds_count{server=\"s\"} 14\n", time.Second},
	{"ack-wait, mean under 500ms", "",
		"lease_write_ack_wait_seconds_sum{server=\"s\"} 1\nlease_write_ack_wait_seconds_count{server=\"s\"} 10\n",
		"lease_write_ack_wait_seconds_sum{server=\"s\"} 3.4\nlease_write_ack_wait_seconds_count{server=\"s\"} 15\n", time.Second},
	{"renewal-storm", "renewal-storm",
		"lease_reconnects_total{server=\"s\"} 10\n", "lease_reconnects_total{server=\"s\"} 20\n", 2 * time.Second},
	{"renewal-storm, 4.5/s", "",
		"lease_reconnects_total{server=\"s\"} 10\n", "lease_reconnects_total{server=\"s\"} 19\n", 2 * time.Second},
	{"unreachable-growth", "unreachable-growth",
		"lease_unreachable_transitions_total{server=\"s\"} 4\n", "lease_unreachable_transitions_total{server=\"s\"} 5\n", 10 * time.Second},
	{"unreachable-growth on a proxy", "unreachable-growth",
		"lease_proxy_unreachable_transitions_total{proxy=\"p\"} 0\n", "lease_proxy_unreachable_transitions_total{proxy=\"p\"} 1\n", 10 * time.Second},
	{"unreachable-growth, 2.7 per 30s", "",
		"lease_unreachable_transitions_total{server=\"s\"} 4\n", "lease_unreachable_transitions_total{server=\"s\"} 5\n", 11 * time.Second},
	{"epoch-bump", "epoch-bump",
		"lease_epoch_bumps_total{server=\"s\"} 2\n", "lease_epoch_bumps_total{server=\"s\"} 3\n", time.Second},
	{"epoch-bump, restarted counter", "",
		"lease_epoch_bumps_total{server=\"s\"} 2\n", "lease_epoch_bumps_total{server=\"s\"} 0\n", time.Second},
	{"inval-backlog", "inval-backlog",
		"", "lease_server_pending_invalidations{server=\"s\"} 1000\n", time.Second},
	{"inval-backlog, 999 and a volume's", "",
		"", "lease_server_pending_invalidations{server=\"s\"} 999\nlease_volume_pending_invalidations{server=\"s\",volume=\"v\"} 5000\n", time.Second},
}

// TestRules runs each rule against the fixtures: a rule fires on its own and
// on no other, and a near miss fires nothing. With no rate window the rate
// rules are skipped and only the level rules can fire.
func TestRules(t *testing.T) {
	covered := map[string]bool{}
	for _, fx := range ruleFixtures {
		t.Run(fx.name, func(t *testing.T) {
			var want []string
			if fx.fires != "" {
				want = []string{fx.fires}
				covered[fx.fires] = true
			}
			s := sample{before: parseProm([]byte(fx.before)), after: parseProm([]byte(fx.after)), elapsed: fx.elapsed}
			if got := firing(s); !slices.Equal(got, want) {
				t.Errorf("firing = %v, want %v", got, want)
			}

			// -rate-window 0: one sample, the rate rules skipped.
			i := slices.IndexFunc(rules, func(r rule) bool { return r.name == fx.fires })
			if i >= 0 && rules[i].rate {
				want = nil
			}
			if got := firing(sample{after: parseProm([]byte(fx.after))}); !slices.Equal(got, want) {
				t.Errorf("without a rate window firing = %v, want %v", got, want)
			}
		})
	}
	for _, r := range rules {
		if !covered[r.name] {
			t.Errorf("rule %s has no fixture that fires it", r.name)
		}
	}
}

// TestUnreachableRuleLive serves a real server through daemon.Stack: a
// holder is cut off and its object written inside leasemon's rate window.
// leasemon must exit 2 naming unreachable-growth, and 0 on the same run
// without the partition.
func TestUnreachableRuleLive(t *testing.T) {
	for _, partition := range []bool{true, false} {
		stack := daemon.New(daemon.Options{Node: "srv", DebugAddr: "127.0.0.1:0"})
		t.Cleanup(stack.Close)
		net := transport.NewMemory()
		net.Taps = stack.Taps
		srv, err := server.New(server.Config{
			Name: "srv", Addr: "srv:1", Net: net, Obs: stack.Obs, MsgTimeout: 50 * time.Millisecond,
			Table: core.Config{ObjectLease: time.Minute, VolumeLease: 300 * time.Millisecond, Mode: core.ModeEager},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		if err := srv.AddVolume("vol"); err != nil {
			t.Fatal(err)
		}
		if err := srv.AddObject("vol", "a", []byte("a v1")); err != nil {
			t.Fatal(err)
		}
		if err := stack.Start(srv.StateSource()); err != nil {
			t.Fatal(err)
		}
		holder, err := client.Dial(net, "srv:1", client.Config{ID: "holder"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { holder.Close() })
		if _, err := holder.Read("vol", "a"); err != nil {
			t.Fatal(err)
		}

		sleep = func(time.Duration) {
			if partition {
				net.Partition("holder", "srv")
			}
			if _, _, err := srv.Write("a", []byte("a v2")); err != nil {
				t.Error(err)
			}
		}
		t.Cleanup(func() { sleep = time.Sleep })
		var out, errw bytes.Buffer
		code := run(&out, &errw, []string{stack.DebugAddr()})
		firesUnreachable := strings.Contains(out.String(), "unreachable-growth")
		if want := map[bool]int{true: 2, false: 0}[partition]; code != want || firesUnreachable != partition {
			t.Errorf("partition=%v: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", partition, code, want, &out, &errw)
		}
	}
}
