// Package history checks the paper's guarantee (§3) where it is promised,
// at the clients: a read never returns a value older than one that was
// already current when the read was called. It takes the reads and writes
// one process saw, each with its call and return on one monotonic clock,
// and checks each object on its own (linearizability is local).
//
// Every write carries a tag unique among its object's writes in the run,
// and a successful write's reply names the version it committed, so the
// order of the writes is known and the check is a sort and a scan per
// object. A read returns the tag of
// version v (a value from before the run counts as v = 0) and is
//
//   - stale when an operation that saw a newer version — a write of it, or
//     a read that returned it — returned before the read was called;
//   - invented when no write of its object called before it returned
//     carries its tag.
//
// A write that failed may have taken effect: its tag can justify a read,
// but it completes nothing, and a read of it is counted as unchecked
// because its version is unknown.
//
// The same history measures the paper's other promise, the write bound: a
// write waits from its call, or from the return of the write of its object
// before it if that came later (the server applies one object's writes one
// at a time), to its return. The report names the longest wait, for the
// caller to compare with its own bound.
//
// The package imports only the standard library, so any driver of a live
// stack can record a history and check it.
package history

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"time"
)

// Op is one read or write as its caller saw it.
type Op struct {
	Object string
	// Tag names the value written, or the value a read returned: unique per
	// write of the object in the run, 0 for a value from before the run.
	Tag uint64
	// Version is the version a successful write committed.
	Version uint64
	// Call and Return are readings of one monotonic clock, as offsets from
	// any origin the whole history shares.
	Call, Return time.Duration
	Write        bool
	OK           bool
}

func (o Op) String() string {
	kind, ver := "read", ""
	if o.Write {
		kind = "write"
		if o.OK {
			ver = fmt.Sprintf(" version %d", o.Version)
		} else {
			ver = " failed"
		}
	}
	return fmt.Sprintf("%s %s tag %d%s [%v, %v]", kind, o.Object, o.Tag, ver, o.Call, o.Return)
}

// Anomaly is one read no linearization admits.
type Anomaly struct {
	Kind string // "stale" or "invented"
	Read Op
	// Missed is, for a stale read, the operation that saw a newer version
	// and returned first; for an invented read, the write carrying the tag
	// if one was called only after the read returned.
	Missed *Op
	// Age is, for a stale read, Read.Call minus Missed.Return.
	Age time.Duration
}

func (a Anomaly) String() string {
	switch {
	case a.Kind == "stale":
		return fmt.Sprintf("stale: %v, called %v after %v returned", a.Read, a.Age, *a.Missed)
	case a.Missed != nil:
		return fmt.Sprintf("invented: %v, returned before %v was called", a.Read, *a.Missed)
	}
	return fmt.Sprintf("invented: %v, a tag no write of %s carries", a.Read, a.Read.Object)
}

// Report is the verdict on a history.
type Report struct {
	// Reads counts the reads that returned a value, Writes every write.
	Reads, Writes int
	// Stale and Invented count the anomalies of each kind; Unchecked the
	// reads of a failed write.
	Stale, Invented, Unchecked int
	// Anomalies lists every stale and invented read, ordered by call.
	Anomalies []Anomaly
	// Wait is the longest wait of a successful write, Slowest that write.
	Wait    time.Duration
	Slowest Op
}

func (r Report) String() string {
	return fmt.Sprintf("history: %d reads, %d writes, %d stale, %d invented, %d unchecked",
		r.Reads, r.Writes, r.Stale, r.Invented, r.Unchecked)
}

// Err is nil when no read is stale or invented; otherwise it names the first
// anomaly.
func (r Report) Err() error {
	if len(r.Anomalies) == 0 {
		return nil
	}
	return fmt.Errorf("%v; first %v", r, r.Anomalies[0])
}

// seen is an operation that saw version v of its object.
type seen struct {
	version uint64
	op      *Op
}

// Tag is a tag for a value by its bytes (FNV-1a), for drivers whose writes
// each carry a distinct value.
func Tag(value []byte) uint64 {
	h := fnv.New64a()
	h.Write(value)
	return h.Sum64()
}

// Log records operations as their caller sees them, stamping each call and
// return from the clock reading now, which every log of one history shares.
// It is safe for concurrent use; a goroutine that records much can keep a
// log of its own.
//
// Of a run of reads of one object returning one value, a log keeps the read
// that returned first and the one called last: a read between them is stale
// or invented only if one of the two is, and witnesses nothing the first
// does not. A reader polling in a tight loop records a few reads, not
// millions.
type Log struct {
	now   func() time.Duration
	mu    sync.Mutex
	ops   []Op
	reads int // every read recorded, with those a run absorbed
}

// NewLog returns an empty log stamping times from now.
func NewLog(now func() time.Duration) *Log { return &Log{now: now} }

// Now is a reading of the log's clock: the call of an operation about to
// start.
func (l *Log) Now() time.Duration { return l.now() }

// Write records a write of the value tagged tag to object, called at call
// and returning now; version is the one it committed when ok.
func (l *Log) Write(object string, tag uint64, call time.Duration, version uint64, ok bool) {
	op := Op{Object: object, Tag: tag, Call: call, Write: true, OK: ok}
	if ok {
		op.Version = version
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	op.Return = l.now()
	l.ops = append(l.ops, op)
}

// Read records a read of object, called at call and returning now the value
// tagged tag.
func (l *Log) Read(object string, tag uint64, call time.Duration) {
	op := Op{Object: object, Tag: tag, Call: call, OK: true}
	l.mu.Lock()
	defer l.mu.Unlock()
	op.Return = l.now()
	l.reads++
	same := func(o Op) bool { return !o.Write && o.Object == op.Object && o.Tag == op.Tag }
	n := len(l.ops)
	if n < 2 || !same(l.ops[n-1]) || !same(l.ops[n-2]) {
		l.ops = append(l.ops, op)
		return
	}
	if op.Return < l.ops[n-2].Return {
		l.ops[n-2] = op
	}
	if op.Call > l.ops[n-1].Call {
		l.ops[n-1] = op
	}
}

// Ops returns a copy of the operations the log keeps.
func (l *Log) Ops() []Op {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.ops)
}

// Check checks the operations of every log together.
func Check(logs ...*Log) Report {
	var r Report
	type key struct {
		object string
		tag    uint64
	}
	writes := map[key]*Op{}
	saw := map[string][]seen{} // per object, the ops whose version is known
	ops := make([][]Op, len(logs))
	for i, l := range logs {
		l.mu.Lock()
		ops[i], r.Reads = slices.Clone(l.ops), r.Reads+l.reads
		l.mu.Unlock()
	}
	for _, log := range ops {
		for i := range log {
			if op := &log[i]; op.Write {
				r.Writes++
				writes[key{op.Object, op.Tag}] = op
				if op.OK {
					saw[op.Object] = append(saw[op.Object], seen{op.Version, op})
				}
			}
		}
	}
	var reads []seen
	for _, log := range ops {
		for i := range log {
			op := &log[i]
			if op.Write || !op.OK {
				continue
			}
			var v uint64
			if op.Tag != 0 {
				w := writes[key{op.Object, op.Tag}]
				if w == nil || w.Call >= op.Return {
					r.Anomalies = append(r.Anomalies, Anomaly{Kind: "invented", Read: *op, Missed: w})
					continue
				}
				if !w.OK {
					r.Unchecked++
					continue
				}
				v = w.Version
			}
			reads = append(reads, seen{v, op})
			saw[op.Object] = append(saw[op.Object], seen{v, op})
		}
	}
	r.Invented = len(r.Anomalies)

	// first[o][i] is the op that returned first among saw[o][i:], sorted by
	// version: the earliest moment a version at least saw[o][i]'s was seen.
	// In that order too, each successful write follows the one it queued
	// behind.
	first := map[string][]*Op{}
	for o, s := range saw {
		slices.SortFunc(s, func(a, b seen) int { return cmp.Compare(a.version, b.version) })
		var prev *Op
		for _, e := range s {
			if w := e.op; w.Write {
				from := w.Call
				if prev != nil {
					from = max(from, prev.Return)
				}
				if wait := w.Return - from; wait > r.Wait {
					r.Wait, r.Slowest = wait, *w
				}
				prev = w
			}
		}
		f := make([]*Op, len(s))
		for i := len(s) - 1; i >= 0; i-- {
			f[i] = s[i].op
			if i+1 < len(s) && f[i+1].Return < f[i].Return {
				f[i] = f[i+1]
			}
		}
		first[o] = f
	}
	for _, rd := range reads {
		s := saw[rd.op.Object]
		i, _ := slices.BinarySearchFunc(s, rd.version+1, func(e seen, v uint64) int { return cmp.Compare(e.version, v) })
		if i == len(s) {
			continue
		}
		if m := first[rd.op.Object][i]; m.Return < rd.op.Call {
			r.Anomalies = append(r.Anomalies, Anomaly{Kind: "stale", Read: *rd.op, Missed: m, Age: rd.op.Call - m.Return})
		}
	}
	r.Stale = len(r.Anomalies) - r.Invented
	slices.SortStableFunc(r.Anomalies, func(a, b Anomaly) int { return cmp.Compare(a.Read.Call, b.Read.Call) })
	return r
}
