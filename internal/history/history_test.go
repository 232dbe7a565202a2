package history

import (
	"go/parser"
	"go/token"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// w and r build the ops of a hand-made history; times are in milliseconds.
func w(obj string, tag, version uint64, call, ret int) Op {
	return Op{Object: obj, Tag: tag, Version: version, Call: ms(call), Return: ms(ret), Write: true, OK: true}
}

func r(obj string, tag uint64, call, ret int) Op {
	return Op{Object: obj, Tag: tag, Call: ms(call), Return: ms(ret), OK: true}
}

func failed(op Op) Op { op.OK, op.Version = false, 0; return op }

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// check checks hand-made logs, their times as written.
func check(logs ...[]Op) Report {
	ls := make([]*Log, len(logs))
	for i, ops := range logs {
		ls[i] = &Log{ops: ops}
		for _, op := range ops {
			if !op.Write && op.OK {
				ls[i].reads++
			}
		}
	}
	return Check(ls...)
}

func TestCheck(t *testing.T) {
	for _, tc := range []struct {
		name string
		logs [][]Op
		// want is each anomaly as kind, read call (ms) and age (ms).
		want      []string
		unchecked int
	}{
		{name: "prior state, no writes", logs: [][]Op{{r("a", 0, 0, 5), r("a", 0, 6, 9)}}},
		{name: "a read after a write returned sees it",
			logs: [][]Op{{w("a", 1, 1, 0, 10)}, {r("a", 1, 20, 25)}}},
		{name: "stale: prior state after a write returned",
			logs: [][]Op{{w("a", 1, 1, 0, 10)}, {r("a", 0, 20, 25)}},
			want: []string{"stale 20 10"}},
		{name: "stale: an older write's value",
			logs: [][]Op{{w("a", 1, 1, 0, 10), w("a", 2, 2, 11, 15)}, {r("a", 1, 30, 31)}},
			want: []string{"stale 30 15"}},
		{name: "concurrent reads may see either value",
			logs: [][]Op{{w("a", 1, 1, 0, 10)}, {r("a", 0, 1, 8)}, {r("a", 1, 2, 9)}, {r("a", 0, 3, 4)}}},
		{name: "invented: a tag whose write was called after the read returned",
			logs: [][]Op{{w("a", 1, 1, 10, 20)}, {r("a", 1, 0, 5)}},
			want: []string{"invented 0 0"}},
		{name: "invented: a tag no write carries",
			logs: [][]Op{{w("a", 1, 1, 0, 10)}, {r("a", 7, 20, 25)}},
			want: []string{"invented 20 0"}},
		{name: "invented: another object's tag",
			logs: [][]Op{{w("b", 1, 1, 0, 10)}, {r("a", 1, 20, 25)}},
			want: []string{"invented 20 0"}},
		{name: "a failed write completes nothing",
			logs: [][]Op{{failed(w("a", 1, 0, 0, 10))}, {r("a", 0, 20, 25)}}},
		{name: "a read of a failed write is unchecked",
			logs:      [][]Op{{failed(w("a", 1, 0, 0, 10)), w("a", 2, 2, 12, 15)}, {r("a", 1, 20, 25)}},
			unchecked: 1},
		{name: "age runs from the newer version seen first",
			logs: [][]Op{{w("a", 1, 1, 0, 10), w("a", 2, 2, 5, 8), w("a", 3, 3, 9, 40)}, {r("a", 0, 20, 30)}},
			want: []string{"stale 20 12"}},
		{name: "a read that saw a newer value returned first",
			logs: [][]Op{{w("a", 1, 1, 0, 100)}, {r("a", 1, 10, 20), r("a", 0, 30, 40)}},
			want: []string{"stale 30 10"}},
		{name: "objects are checked apart",
			logs: [][]Op{{w("a", 1, 1, 0, 10)}, {r("b", 0, 20, 25), r("a", 1, 26, 27)}}},
		{name: "anomalies in call order",
			logs: [][]Op{{w("a", 1, 1, 0, 10)}, {r("a", 0, 50, 51)}, {r("a", 9, 40, 41), r("a", 0, 30, 31)}},
			want: []string{"stale 30 20", "invented 40 0", "stale 50 40"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := check(tc.logs...)
			var got []string
			stale := 0
			for _, a := range rep.Anomalies {
				got = append(got, strings.Join([]string{a.Kind, itoa(a.Read.Call), itoa(a.Age)}, " "))
				if a.Kind == "stale" {
					stale++
				}
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("anomalies %q, want %q", got, tc.want)
			}
			if rep.Stale != stale || rep.Invented != len(got)-stale || rep.Unchecked != tc.unchecked {
				t.Errorf("%v; want %d stale, %d invented, %d unchecked", rep, stale, len(got)-stale, tc.unchecked)
			}
			if (rep.Err() == nil) != (len(tc.want) == 0) {
				t.Errorf("Err() = %v with anomalies %q", rep.Err(), got)
			}
		})
	}
}

func itoa(d time.Duration) string { return strconv.Itoa(int(d / time.Millisecond)) }

// TestReportNamesReadAndMissedWrite: the text of a stale read names the read
// and the write it missed, with their tags and versions.
func TestReportNamesReadAndMissedWrite(t *testing.T) {
	rep := check([]Op{w("obj-3", 41, 7, 0, 10), r("obj-3", 0, 20, 25)})
	if rep.Stale != 1 || rep.Anomalies[0].Age != ms(10) {
		t.Fatalf("%v, anomalies %v; want 1 stale read of age 10ms", rep, rep.Anomalies)
	}
	for _, want := range []string{"read obj-3 tag 0 [20ms, 25ms]", "write obj-3 tag 41 version 7 [0s, 10ms]", "10ms after"} {
		if !strings.Contains(rep.Err().Error(), want) {
			t.Errorf("%q does not hold %q", rep.Err(), want)
		}
	}
}

// TestWriteWait: a write waits from its call, or from the return of its
// object's previous write when it was queued behind it; the report names the
// longest wait and its write, and a failed write is not measured.
func TestWriteWait(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  []Op
		wait int // ms
		tag  uint64
	}{
		{name: "no writes", ops: []Op{r("a", 0, 0, 5)}},
		{name: "from its call", ops: []Op{w("a", 1, 1, 10, 40)}, wait: 30, tag: 1},
		{name: "queued behind the previous write of its object",
			ops: []Op{w("a", 1, 1, 0, 50), w("a", 2, 2, 5, 60)}, wait: 50, tag: 1},
		{name: "in version order, not record order",
			ops: []Op{w("a", 2, 3, 5, 60), w("a", 1, 2, 0, 50)}, wait: 50, tag: 1},
		{name: "another object's write does not queue it",
			ops: []Op{w("b", 1, 1, 0, 50), w("a", 2, 1, 5, 60)}, wait: 55, tag: 2},
		{name: "the longest of several",
			ops: []Op{w("a", 1, 1, 0, 10), w("a", 2, 2, 20, 90), w("a", 3, 3, 95, 100)}, wait: 70, tag: 2},
		{name: "a failed write is not counted",
			ops: []Op{failed(w("a", 1, 0, 0, 500)), w("a", 2, 2, 10, 20)}, wait: 10, tag: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := check(tc.ops)
			if rep.Wait != ms(tc.wait) || rep.Slowest.Tag != tc.tag {
				t.Errorf("longest wait %v by %v, want %dms by tag %d", rep.Wait, rep.Slowest, tc.wait, tc.tag)
			}
		})
	}
}

// TestLogKeepsEndsOfARun: of a run of reads of one value the log keeps the
// one that returned first and the one called last, whatever order concurrent
// callers record them in, and counts every read.
func TestLogKeepsEndsOfARun(t *testing.T) {
	var now time.Duration
	l := NewLog(func() time.Duration { return now })
	read := func(tag uint64, call, ret int) {
		now = ms(ret)
		l.Read("a", tag, ms(call))
	}
	read(1, 0, 10)
	read(1, 1, 12)
	read(1, 2, 9)   // returned first
	read(1, 30, 31) // called last
	read(1, 20, 40)
	read(2, 41, 42)
	now = ms(44)
	l.Write("a", 3, ms(43), 3, true)
	read(2, 45, 46)
	var got []string
	for _, op := range l.ops {
		got = append(got, op.String())
	}
	want := []string{
		"read a tag 1 [2ms, 9ms]", "read a tag 1 [30ms, 31ms]", "read a tag 2 [41ms, 42ms]",
		"write a tag 3 version 3 [43ms, 44ms]", "read a tag 2 [45ms, 46ms]",
	}
	if !slices.Equal(got, want) {
		t.Errorf("log holds\n%q, want\n%q", got, want)
	}
	if rep := Check(l); rep.Reads != 7 || rep.Writes != 1 {
		t.Errorf("%v; want 7 reads, 1 write", rep)
	}
}

// small is a history of at most six ops on one or two objects, for the
// brute-force comparison. Times are distinct, so no two events tie.
type small struct {
	ops []Op
	// inCallOrder: each object's successful writes have versions in the order
	// of their calls, as writes the server serialises on arrival do.
	inCallOrder bool
}

func (small) Generate(rng *rand.Rand, _ int) reflect.Value {
	n := 1 + rng.Intn(6)
	objects := []string{"a", "b"}[:1+rng.Intn(2)]
	times := rng.Perm(2 * n)
	h := small{ops: make([]Op, n), inCallOrder: rng.Intn(4) != 0}
	for i := range h.ops {
		call, ret := times[2*i], times[2*i+1]
		op := Op{Object: objects[rng.Intn(len(objects))], Call: ms(min(call, ret)), Return: ms(max(call, ret)),
			Write: rng.Intn(2) == 0, OK: rng.Intn(5) != 0}
		if op.Write {
			op.Tag = uint64(i + 1)
		} else {
			op.Tag = uint64(rng.Intn(n + 2)) // 0, a write's tag, or a tag no write carries
		}
		h.ops[i] = op
	}
	for _, obj := range objects {
		var ws []*Op
		for i := range h.ops {
			if op := &h.ops[i]; op.Write && op.OK && op.Object == obj {
				ws = append(ws, op)
			}
		}
		if h.inCallOrder {
			slices.SortFunc(ws, func(a, b *Op) int { return int(a.Call - b.Call) })
		} else {
			rng.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
		}
		for v, op := range ws {
			op.Version = uint64(v + 1)
		}
	}
	return reflect.ValueOf(h)
}

// linearizable is the reference: a search over every order of the ops that
// keeps real time and each object's version order, in which each failed
// write may or may not take effect, for one in which every read returns the
// tag of the last write of its object before it.
func linearizable(ops []Op) bool {
	placed := make([]bool, len(ops))
	cur := map[string]uint64{}
	var search func(left int) bool
	search = func(left int) bool {
		if left == 0 {
			return true
		}
	next:
		for i, op := range ops {
			if placed[i] {
				continue
			}
			for j, o := range ops {
				if !placed[j] && j != i && (o.Return < op.Call ||
					op.Write && op.OK && o.Write && o.OK && o.Object == op.Object && o.Version < op.Version) {
					continue next
				}
			}
			if !op.Write && op.OK && cur[op.Object] != op.Tag {
				continue
			}
			placed[i] = true
			prev := cur[op.Object]
			if op.Write {
				cur[op.Object] = op.Tag
				if search(left - 1) {
					return true
				}
				cur[op.Object] = prev
			}
			if (!op.Write || !op.OK) && search(left-1) {
				return true
			}
			placed[i] = false
		}
		return false
	}
	return search(len(ops))
}

// TestCheckAgainstBruteForce: Check never flags a history the reference
// linearizes. When versions follow call order and no read is unchecked, it
// flags every history the reference cannot linearize.
func TestCheckAgainstBruteForce(t *testing.T) {
	var clean, flagged int
	prop := func(h small) bool {
		rep, lin := check(h.ops), linearizable(h.ops)
		if lin {
			clean++
		} else if len(rep.Anomalies) > 0 {
			flagged++
		}
		if lin && len(rep.Anomalies) > 0 {
			return false
		}
		return lin || !h.inCallOrder || rep.Unchecked > 0 || len(rep.Anomalies) > 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	if clean < 300 || flagged < 300 {
		t.Errorf("%d linearizable and %d flagged histories of 3000: the generator is lopsided", clean, flagged)
	}
}

// TestImportsOnlyStandardLibrary keeps the check usable by any driver of a
// live stack: it imports nothing from this module.
func TestImportsOnlyStandardLibrary(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources: %v", err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path := strings.Trim(imp.Path.Value, `"`); strings.HasPrefix(path, "repro/") {
				t.Errorf("%s imports %s", file, path)
			}
		}
	}
}
