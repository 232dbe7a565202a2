package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cost"
	"repro/internal/metrics"
	"repro/internal/wire"
)

func TestEmitFigureWritesTSV(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations; skipped in -short mode")
	}
	dir := t.TempDir()
	// Figure 6 (state) on the small workload is the cheapest full figure.
	if err := emitFigure(6, bench.ScaleSmall, dir); err != nil {
		t.Fatalf("emitFigure: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig6.tsv"))
	if err != nil {
		t.Fatalf("TSV not written: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < len(bench.Fig5Families())*len(bench.DefaultTimeouts) {
		t.Errorf("TSV has %d rows, want >= %d", len(lines),
			len(bench.Fig5Families())*len(bench.DefaultTimeouts))
	}
	for i, line := range lines {
		if len(strings.Split(line, "\t")) != 3 {
			t.Fatalf("row %d malformed: %q", i, line)
		}
	}
}

func TestEmitFigureUnknownNumber(t *testing.T) {
	if err := emitFigure(3, bench.ScaleSmall, t.TempDir()); err == nil {
		t.Fatal("figure 3 accepted")
	}
}

func TestPrintTable1(t *testing.T) {
	if err := printTable1(); err != nil {
		t.Fatal(err)
	}
}

func TestEmitLive(t *testing.T) {
	dir := t.TempDir()
	dump := cost.Dump{
		Node:          "srv-live",
		WindowSeconds: 60,
		Seconds: []cost.Second{
			{Unix: 100, Msgs: 9}, {Unix: 101, Msgs: 2},
			{Unix: 102, Msgs: 9}, {Unix: 103, Msgs: 1},
		},
		Burst: cost.Burst{WindowSeconds: 60, Peak: 9, Mean: 0.35, BusySeconds: 4, IdleSeconds: 56, Ratio: 25.7},
	}
	raw, err := json.Marshal(dump)
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(dir, "dump.json")
	if err := os.WriteFile(src, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := emitLive(src, dir); err != nil {
		t.Fatalf("emitLive: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "figlive.tsv"))
	if err != nil {
		t.Fatalf("TSV not written: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	// Distinct loads 1, 2, 9 -> cumulative periods 4, 3, 2.
	want := []string{
		"live-srv-live\t1\t4",
		"live-srv-live\t2\t3",
		"live-srv-live\t9\t2",
	}
	if len(lines) != len(want) {
		t.Fatalf("TSV rows = %v, want %v", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("row %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestDumpCumulative(t *testing.T) {
	loads, periods := cumulative([]cost.Second{
		{Unix: 1, Msgs: 3}, {Unix: 2, Msgs: 1}, {Unix: 3, Msgs: 3},
		{Unix: 4, Msgs: 7}, {Unix: 5}, // zero-load second excluded
	})
	if !reflect.DeepEqual(loads, []int64{1, 3, 7}) || !reflect.DeepEqual(periods, []int{4, 3, 1}) {
		t.Errorf("cumulative = %v %v, want [1 3 7] [4 3 1]", loads, periods)
	}
	if l, p := cumulative(nil); l != nil || p != nil {
		t.Errorf("empty cumulative = %v %v", l, p)
	}
}

func TestKindClassCoversProtocol(t *testing.T) {
	// Every real wire kind maps to a stable lowercase label, and the kinds
	// the simulator models map to its exact MsgClass names.
	for i := 1; i < wire.NumKinds; i++ {
		name := wire.Kind(i).String()
		label := kindClass(name)
		if label == "" || strings.ToLower(label) != label {
			t.Errorf("kind %s -> %q", name, label)
		}
	}
	for kind, want := range map[string]metrics.MsgClass{
		"ReqObjLease":    metrics.MsgObjLeaseReq,
		"ObjLease":       metrics.MsgObjLease,
		"ReqVolLease":    metrics.MsgVolLeaseReq,
		"VolLease":       metrics.MsgVolLease,
		"Invalidate":     metrics.MsgInvalidate,
		"AckInvalidate":  metrics.MsgAckInvalidate,
		"MustRenewAll":   metrics.MsgMustRenewAll,
		"RenewObjLeases": metrics.MsgRenewObjLeases,
		"InvalRenew":     metrics.MsgInvalRenew,
	} {
		if got := kindClass(kind); got != want.String() {
			t.Errorf("kindClass(%s) = %q, want %q", kind, got, want)
		}
	}
}

func TestEmitCost(t *testing.T) {
	dir := t.TempDir()
	dump := cost.Dump{
		Node: "bench",
		Kinds: []cost.KindStat{
			{Kind: "ReqObjLease", FramesSent: 100, FramesRecv: 100},
			{Kind: "ObjLease", FramesSent: 100, FramesRecv: 98},
			{Kind: "Invalidate", FramesSent: 40, FramesRecv: 40},
		},
	}
	raw, err := json.Marshal(dump)
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(dir, "cost.json")
	if err := os.WriteFile(src, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := emitCost(src, dir); err != nil {
		t.Fatalf("emitCost: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "figcost.tsv"))
	if err != nil {
		t.Fatalf("TSV not written: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	// Messages() = max(sent, recv): the lost grant still counts as 100.
	want := []string{
		"obj-lease-req\t0\t100",
		"obj-lease\t1\t100",
		"invalidate\t2\t40",
	}
	if len(lines) != len(want) {
		t.Fatalf("TSV rows = %v, want %v", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("row %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestEmitCostRejectsGarbageAndIdle(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "junk.json")
	if err := os.WriteFile(src, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := emitCost(src, dir); err == nil {
		t.Error("garbage dump accepted")
	}
	idle := filepath.Join(dir, "idle.json")
	if err := os.WriteFile(idle, []byte(`{"node":"s","totals":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := emitCost(idle, dir); err == nil {
		t.Error("idle cost dump accepted")
	}
}

func TestEmitLiveRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "junk.json")
	if err := os.WriteFile(src, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := emitLive(src, dir); err == nil {
		t.Error("garbage dump accepted")
	}
	// An idle timeline is an explicit error, not an empty file.
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"node":"s","seconds":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := emitLive(empty, dir); err == nil {
		t.Error("idle timeline accepted")
	}
}
