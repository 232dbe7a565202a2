package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// segStats is what one driver accumulates over one stretch of its loop.
type segStats struct {
	ops    uint64 // operations completed, timed or not
	reads  uint64
	writes uint64
	failed uint64 // error, timeout, or a value the oracle rejects
	readH  hist
	writeH hist
	endNs  int64 // when the driver left the loop, on the monotonic base
}

func (s *segStats) merge(o *segStats) {
	s.ops += o.ops
	s.reads += o.reads
	s.writes += o.writes
	s.failed += o.failed
	s.readH.merge(&o.readH)
	s.writeH.merge(&o.writeH)
	if o.endNs > s.endNs {
		s.endNs = o.endNs
	}
}

// rootOp is the traced run's root span: one Client.Read or Client.Write call
// as the driver saw it.
type rootOp struct {
	start, end int64
	obj        *object
	node       int16 // tap id of the client that was called
	write      bool
	phase      uint8
}

// loopOpts bounds one call of run: a cycle count, or a deadline on the
// monotonic base (checked on timed cycles only).
type loopOpts struct {
	cycles     int
	deadlineNs int64
	sampleMask int       // time one cycle in sampleMask+1; 0 times all
	roots      *[]rootOp // traced run: append a root span per timed operation
	phase      uint8
}

var monoBase = time.Now()

// nowNs is the benchmark's one clock: nanoseconds on the monotonic base.
func nowNs() int64 { return int64(time.Since(monoBase)) }

var violationsPrinted atomic.Int32

// run is the closed loop: driver d repeats its lane's scripted cycle on the
// next object of its visit order, one operation in flight at a time, and
// checks every value read.
func (t *topology) run(d int, l *lane, opt loopOpts, st *segStats) {
	if len(l.objs) == 0 {
		return
	}
	for i := 0; opt.cycles == 0 || i < opt.cycles; i++ {
		o := l.objs[l.order[l.pos]]
		if l.pos++; l.pos == len(l.order) {
			l.pos = 0
		}
		timed := i&opt.sampleMask == 0
		var t0, t1 int64
		for _, r := range l.readers {
			if timed {
				t0 = nowNs()
			}
			data, err := r.c.Read(l.vol, o.id)
			if timed {
				t1 = nowNs()
				st.readH.add(t1 - t0)
				if opt.roots != nil {
					*opt.roots = append(*opt.roots, rootOp{start: t0, end: t1, obj: o, node: r.tap, phase: opt.phase})
				}
			}
			st.reads++
			if err != nil {
				t.fail(st, d, o, r.name, fmt.Sprintf("read error: %v", err))
			} else if got, ok := t.verify(o, data); !ok {
				t.fail(st, d, o, r.name, fmt.Sprintf("read returned counter %d, last acknowledged write is %d", got, o.counter))
			}
		}
		if l.writer != nil {
			body := t.payload(d, o, o.counter+1)
			if timed {
				t0 = nowNs()
			}
			_, _, err := l.writer.c.Write(o.id, body)
			if timed {
				t1 = nowNs()
				st.writeH.add(t1 - t0)
				if opt.roots != nil {
					*opt.roots = append(*opt.roots, rootOp{start: t0, end: t1, obj: o, node: l.writer.tap, write: true, phase: opt.phase})
				}
			}
			st.writes++
			if err != nil {
				t.fail(st, d, o, l.writer.name, fmt.Sprintf("write error: %v", err))
			} else {
				o.counter++
			}
		}
		if timed && opt.deadlineNs != 0 && t1 >= opt.deadlineNs {
			break
		}
	}
	st.ops = st.reads + st.writes
	st.endNs = nowNs()
}

func (t *topology) fail(st *segStats, d int, o *object, client, what string) {
	st.failed++
	if violationsPrinted.Add(1) <= 10 {
		fmt.Fprintf(os.Stderr, "VIOLATION %s driver %d object %s via %s: %s\n", t.spec.name, d, o.id, client, what)
	}
}
