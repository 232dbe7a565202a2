package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/server"
	"repro/internal/transport"
)

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"-addr", "127.0.0.1:7400", "-clients", "4", "-duration", "100ms", "-write-ratio", "0.5"})
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != "127.0.0.1:7400" || o.clients != 4 || o.duration != 100*time.Millisecond || o.writeRatio != 0.5 {
		t.Errorf("options = %+v", o)
	}
	if _, err := parseFlags(nil); err == nil || !strings.Contains(err.Error(), "leased") {
		t.Errorf("missing -addr: err = %v, want one that says to start leased", err)
	}
	for _, bad := range [][]string{
		{"-clients", "0"},
		{"-duration", "0s"},
		{"-write-ratio", "1.5"},
		{"-objects", "-1"},
		// Flags of the in-process harness, gone: the target serves these.
		{"-object-lease", "1m"},
		{"-volume-lease", "5s"},
		{"-tcp"},
		{"-audit"},
		{"-trace"},
		{"-cost-out", "cost.json"},
		{"-debug-addr", "127.0.0.1:0"},
		{"-flight-dir", "dumps"},
	} {
		if _, err := parseFlags(append([]string{"-addr", "127.0.0.1:7400"}, bad...)); err == nil {
			t.Errorf("flags %v accepted", bad)
		}
	}
}

// startServer serves objects obj-0 … obj-<n-1> in volume "bench" over TCP
// on a loopback port, as `leased -volume bench -objects n` would, and
// returns its address.
func startServer(t *testing.T, objects int) string {
	t.Helper()
	srv, err := server.New(server.Config{
		Name:       "bench-origin",
		Addr:       "127.0.0.1:0",
		Net:        transport.TCP{},
		Table:      core.Config{ObjectLease: time.Minute, VolumeLease: 5 * time.Second, Mode: core.ModeEager},
		MsgTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if err := srv.AddVolume("bench"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < objects; i++ {
		if err := srv.AddObject("bench", core.ObjectID(fmt.Sprintf("obj-%d", i)), []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	return srv.Addr()
}

// TestExecuteSelfContained drives a lease server built in the test over TCP,
// as a running leased would be driven, with writes in the mix: every
// operation succeeds, reads are served from the clients' caches, and writes
// invalidate the other clients' leases.
func TestExecuteSelfContained(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	const objects = 64
	o, err := parseFlags([]string{
		"-addr", startServer(t, objects), "-clients", "4", "-objects", fmt.Sprint(objects),
		"-duration", "300ms", "-write-ratio", "0.1",
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := execute(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.errors.Load() != 0 {
		t.Errorf("%d errors during load; the first: %v", res.errors.Load(), res.failures)
	}
	if res.reads.Load() == 0 || res.writes.Load() == 0 {
		t.Errorf("reads=%d writes=%d, want both non-zero", res.reads.Load(), res.writes.Load())
	}
	if res.readLat.Count() != res.reads.Load() {
		t.Errorf("latency samples %d != reads %d", res.readLat.Count(), res.reads.Load())
	}
	if res.localReads == 0 {
		t.Error("no locally served reads; caching is broken")
	}
	if res.invalidations == 0 {
		t.Error("no invalidations received; writes did not reach the other clients' leases")
	}
	var out strings.Builder
	if err := res.report(&out, o); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"throughput:", "read ", "write ", "cache:",
		fmt.Sprintf("history: %d reads, %d writes, 0 stale, 0 invented, 0 unchecked\n", res.reads.Load(), res.writes.Load()),
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
	// Reads return this run's tags: the check saw the writes' values, not
	// only the seeded ones.
	tagged := 0
	for _, log := range res.logs {
		for _, op := range log.Ops() {
			if !op.Write && op.Tag != 0 {
				tagged++
			}
		}
	}
	if tagged == 0 {
		t.Error("no read returned a tag this run wrote")
	}
}

// TestExecuteSelfContainedTCP runs a read-only mix over TCP: reads succeed
// and no write is issued, so no client's lease is invalidated.
func TestExecuteSelfContainedTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	const objects = 4
	o, err := parseFlags([]string{
		"-addr", startServer(t, objects), "-clients", "2", "-objects", fmt.Sprint(objects),
		"-duration", "200ms", "-write-ratio", "0",
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := execute(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.reads.Load() == 0 || res.errors.Load() != 0 {
		t.Errorf("reads=%d errors=%d %v", res.reads.Load(), res.errors.Load(), res.failures)
	}
	if res.writes.Load() != 0 || res.invalidations != 0 {
		t.Errorf("writes=%d invalidations=%d in a read-only run", res.writes.Load(), res.invalidations)
	}
}

// TestAuditViolationLeavesFlightDump: a history with a stale read — a read of
// the seeded value called after a write of a newer version had returned —
// makes the run fail, and the report names the read and the write it missed.
// (The verdict is the clients' own history; the target's flight dump is
// taken on demand, with leasemon -freeze.)
func TestAuditViolationLeavesFlightDump(t *testing.T) {
	var now time.Duration
	clock := func() time.Duration { return now }
	writer, reader := history.NewLog(clock), history.NewLog(clock)
	now = 20 * time.Millisecond
	writer.Write("obj-3", 1, 10*time.Millisecond, 2, true)
	now = 31 * time.Millisecond
	reader.Read("obj-3", 0, 30*time.Millisecond)
	res := &result{elapsed: time.Second, logs: []*history.Log{writer, reader}}
	res.reads.Store(1)
	res.writes.Store(1)
	var out strings.Builder
	err := res.report(&out, options{duration: time.Second})
	if err == nil {
		t.Fatalf("a stale read passed:\n%s", &out)
	}
	for _, want := range []string{
		"history: 1 reads, 1 writes, 1 stale, 0 invented, 0 unchecked\n",
		"longest write wait: 10ms, write obj-3 tag 1 version 2 [10ms, 20ms]\n",
		"anomaly: stale: read obj-3 tag 0 [30ms, 31ms], called 10ms after write obj-3 tag 1 version 2 [10ms, 20ms] returned\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, &out)
		}
	}
	if !strings.Contains(err.Error(), "1 stale") {
		t.Errorf("run's error %q does not count the stale read", err)
	}
}

// TestTagOf: a read decodes the tag this run's write put at the head of the
// payload; anything else is a value from before the run.
func TestTagOf(t *testing.T) {
	const nonce = 0x1234
	data := make([]byte, 2048)
	binary.BigEndian.PutUint64(data, nonce)
	binary.BigEndian.PutUint64(data[8:], 77)
	for _, tc := range []struct {
		data []byte
		want uint64
	}{
		{data, 77},
		{data[:16], 77},
		{data[:15], 0},
		{[]byte("object 3, version 1"), 0},
		{make([]byte, 2048), 0},
	} {
		if got := tagOf(tc.data, nonce); got != tc.want {
			t.Errorf("tagOf(%q) = %d, want %d", tc.data[:min(len(tc.data), 16)], got, tc.want)
		}
	}
	if got := tagOf(data, nonce+1); got != 0 {
		t.Errorf("another run's tag decoded as %d", got)
	}
}

// TestReportNamesFailures: every failed operation is counted, and the first
// few are reported with their operation, object and error.
func TestReportNamesFailures(t *testing.T) {
	var res result
	res.elapsed = time.Second
	for i := 0; i < keptFailures+3; i++ {
		res.fail("read", core.ObjectID(fmt.Sprintf("obj-%d", i)), errors.New("could not hold both leases"))
	}
	var out strings.Builder
	if err := res.report(&out, options{}); err != nil {
		t.Fatal(err)
	}
	if res.errors.Load() != keptFailures+3 || strings.Count(out.String(), "error: read obj-") != keptFailures {
		t.Errorf("%d errors counted, report:\n%s", res.errors.Load(), &out)
	}
	if !strings.Contains(out.String(), "error: read obj-0: could not hold both leases\n") {
		t.Errorf("report does not name the first failure:\n%s", &out)
	}
}

// TestReportTalliesCauses: every error is counted under its cause — the
// operation and the message with the object named replaced — most frequent
// first, and the causes past the first few are summed on one line.
func TestReportTalliesCauses(t *testing.T) {
	var res result
	res.elapsed = time.Second
	for i := 0; i < 5; i++ {
		oid := core.ObjectID(fmt.Sprintf("obj-%d", i))
		res.fail("read", oid, fmt.Errorf("core: could not hold both leases long enough to read bench/%s", oid))
	}
	for i := 0; i < 3; i++ {
		res.fail("write", "obj-1", errors.New("client: timeout"))
	}
	res.fail("read", "obj-2", errors.New("client: timeout"))
	for i := 0; i < keptFailures; i++ {
		res.fail("read", "obj-1", fmt.Errorf("rare cause %d", i))
	}
	var out strings.Builder
	if err := res.report(&out, options{}); err != nil {
		t.Fatal(err)
	}
	var tally []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "errors: ") {
			tally = append(tally, line)
		}
	}
	want := []string{
		"errors: 5 read: core: could not hold both leases long enough to read bench/<object>",
		"errors: 3 write: client: timeout",
		"errors: 1 read: client: timeout",
		"errors: 1 read: rare cause 0",
	}
	if len(tally) != keptFailures+1 || !slices.Equal(tally[:len(want)], want) {
		t.Fatalf("tally lines:\n%s\nwant %d lines starting\n%s", strings.Join(tally, "\n"), keptFailures+1, strings.Join(want, "\n"))
	}
	if last, want := tally[keptFailures], "errors: 3 in 3 more causes"; last != want {
		t.Errorf("last tally line %q, want %q", last, want)
	}
	if n := strings.Count(out.String(), "error: "); n != keptFailures {
		t.Errorf("%d example errors, want %d", n, keptFailures)
	}
}
