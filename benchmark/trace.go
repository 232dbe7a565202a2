package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// traced is the result of the traced run: the per-layer metrics, the shape
// guards that need frame counts, and the ladders.
type traced struct {
	perLayer  map[string]metric
	guards    []guard
	ladders   []ladder
	attempted uint64
	failed    uint64
}

// ladder lays one operation's phase medians beside its untraced p50.
type ladder struct {
	Name          string       `json:"name"`
	Phases        []ladderStep `json:"phases"`
	SumUs         float64      `json:"sum_us"`
	UntracedP50Us float64      `json:"untraced_p50_us"`
	Unattributed  float64      `json:"unattributed_us"`
}

type ladderStep struct {
	Name string  `json:"name"`
	Us   float64 `json:"us"`
}

// joinedOp is a root span with the frames that belong to it: every event
// naming its object between its start and end. Scripted cycles keep one
// operation in flight per object, so that window is unambiguous.
type joinedOp struct {
	rootOp
	evs []frameEvent
}

// phaseSamples collects per-operation phase durations in nanoseconds by
// trace phase, so a metric can prefer the workload's own cycle and fall back
// to the probe cycle where the workload has none.
type phaseSamples [3]map[string][]float64

func (p *phaseSamples) add(phase uint8, name string, ns int64) {
	if p[phase] == nil {
		p[phase] = map[string][]float64{}
	}
	p[phase][name] = append(p[phase][name], float64(ns))
}

func (p *phaseSamples) get(name string) []float64 {
	if s := p[phaseRun][name]; len(s) > 0 {
		return s
	}
	return p[phaseProbe][name]
}

// runTraced repeats the workload on a tapped topology for a fixed number of
// cycles and derives the per-layer metrics from the spans. ref is the
// untraced run of the same workload that came just before: the overhead and
// the ladders are stated against it, it supplies the driver layer's rows,
// and it leaves the process as loaded with pending client timers as its own
// measurements were, which a short traced run could not do for itself.
func runTraced(s *spec, seed int64, opt runOpts, ref *untraced) (*traced, error) {
	cycles := int(opt.scale * float64(s.traceCycles))
	probeN := 0
	if !s.writes {
		probeN = int(opt.scale * traceProbeCycles)
	}
	perCycle := 12*s.opsPerCycle() + 12 // upper bound on events per cycle, proxied or not
	capacity := drivers*probeN*24 + 4096
	if !s.hits() {
		capacity += drivers * cycles * perCycle
	}
	hub := newTapHub(capacity)
	t, err := build(s, seed, hub)
	if err != nil {
		return nil, err
	}
	defer t.close() // a second close is a no-op

	var total segStats
	// Untimed stretch, tap off: outlasts lease_miss's warm-up leases.
	t.stretch(&t.hot, 100*time.Millisecond, s.sampleMask, &total)

	// Root spans are pre-allocated so the timed loop never grows a slice.
	var roots [drivers][]rootOp
	for d := range roots {
		n := cycles*s.opsPerCycle()/(s.sampleMask+1) + 2*probeN + 64
		roots[d] = make([]rootOp, 0, n)
	}
	phase := func(id uint8, lanes *[drivers]lane, n int, mask int) (segStats, time.Duration) {
		hub.phase.Store(int32(id))
		defer hub.phase.Store(phaseOff)
		return t.both(lanes, &total, func(d int) loopOpts {
			return loopOpts{cycles: n, sampleMask: mask, roots: &roots[d], phase: id}
		})
	}
	l0, s0 := t.readCounts()
	b0 := t.batch.Snapshot()
	runStart := nowNs()
	run, elapsed := phase(phaseRun, &t.hot, cycles, s.sampleMask)
	runEnd := nowNs()
	b1 := t.batch.Snapshot()
	l1, s1 := t.readCounts()
	if probeN > 0 {
		phase(phaseProbe, &t.probe, probeN, 0)
	}
	// Closing waits for every connection goroutine, so every event of every
	// completed operation is in the buffer before it is read.
	t.close()

	tr := &traced{perLayer: map[string]metric{}, attempted: total.ops, failed: total.failed}
	set := func(name string, v float64, unit string) { tr.perLayer[name] = metric{v, unit} }
	for name, m := range ref.driver {
		tr.perLayer[name] = m
	}
	tracedRate := float64(run.ops) / elapsed.Seconds()
	set("driver.trace_overhead_frac", 1-tracedRate/ref.val("ops_per_s"), "frac")

	// Transport counts over the run phase, from the tap and BatchStats.
	var frames, bytes float64
	for _, e := range hub.recorded() {
		if e.send && !e.cont && e.enter >= runStart && e.enter <= runEnd {
			frames++
			bytes += float64(e.bytes)
		}
	}
	ops := float64(run.ops)
	flushes := float64(b1.Flushes - b0.Flushes)
	set("transport.frames_per_op", frames/ops, "count")
	set("transport.bytes_per_op", bytes/ops, "B")
	set("transport.flushes_per_op", flushes/ops, "count")
	perFlush := 0.0
	if flushes > 0 {
		perFlush = float64(b1.Frames-b0.Frames) / flushes
	}
	set("transport.frames_per_flush", perFlush, "count")

	an := analyse(hub, roots[:], s)
	us := func(name string) { set(name, medianNs(an.samples.get(name))/1e3, "us") }
	set("transport.send_call_ns", medianNs(an.samples.get("transport.send_call_us")), "ns")
	for _, name := range []string{
		"transport.oneway_us", "client.miss_pre_us", "client.miss_post_us", "client.inval_turnaround_us",
		"client.write_residual_us", "server.grant_turnaround_us", "server.write_plan_us",
		"server.fanout_span_us", "server.ack_collect_us", "server.finish_us",
	} {
		us(name)
	}
	set("server.invalidations_per_write", an.invalsPerWrite, "count")
	set("proxy.upstream_share", an.upstreamShare, "frac")
	if s.proxy {
		for name := range proxyOnly {
			us(name)
		}
	}

	iso, err := isolated(hub, opt.scale)
	if err != nil {
		return nil, fmt.Errorf("isolated measurements: %w", err)
	}
	for name, m := range iso {
		tr.perLayer[name] = m
	}

	// Guards.
	hitShare := float64(l1-l0) / float64(l1-l0+s1-s0)
	g := hitShareGuard(s, hitShare)
	g.Name += " (traced)"
	tr.guards = append(tr.guards, g)
	check := func(name string, ok bool, format string, args ...any) {
		tr.guards = append(tr.guards, guard{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	}
	check("trace.dropped_events", hub.dropped.Load() == 0, "%d dropped of capacity %d", hub.dropped.Load(), capacity)
	check("trace.joined_ops", an.incomplete*100 <= an.joined, "%d of %d traced operations lack a frame", an.incomplete, an.joined)
	if s.hits() {
		check("transport.frames_per_op", frames/ops < 0.001, "%.6f < 0.001", frames/ops)
	}
	wantInvals := float64(s.readers)
	if !s.writes {
		wantInvals = 1 // the probe cycle's single holder
	}
	check("server.invalidations_per_write", an.invalsPerWrite == wantInvals, "%v == %v", an.invalsPerWrite, wantInvals)
	if s.proxy {
		d := an.upstreamShare - 0.25
		check("proxy.upstream_share", d >= -0.02 && d <= 0.02, "%.4f = 0.25 ± 0.02", an.upstreamShare)
	}

	switch s.name {
	case "lease_miss":
		tr.ladders = append(tr.ladders, newLadder("lease_miss read", ref.driver["driver.read_p50_us"].Value, &an.samples,
			"client.miss_pre_us", "ladder.oneway_request_us", "server.grant_turnaround_us", "ladder.oneway_reply_us", "client.miss_post_us"))
	case "write_fanout":
		tr.ladders = append(tr.ladders, newLadder("write_fanout write", ref.driver["driver.write_p50_us"].Value, &an.samples,
			"client.write_residual_us", "server.write_plan_us", "server.fanout_span_us", "server.ack_collect_us", "server.finish_us"))
	}

	if opt.outDir != "" {
		if err := writeSpans(filepath.Join(opt.outDir, "trace-"+s.name+".jsonl"), hub, an.ops); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

func newLadder(name string, untracedP50 float64, samples *phaseSamples, phases ...string) ladder {
	l := ladder{Name: name, UntracedP50Us: untracedP50}
	for _, p := range phases {
		v := medianNs(samples.get(p)) / 1e3
		l.Phases = append(l.Phases, ladderStep{p, v})
		l.SumUs += v
	}
	l.Unattributed = untracedP50 - l.SumUs
	return l
}

// analysis is what the join produces.
type analysis struct {
	ops            []joinedOp
	samples        phaseSamples
	joined         int // operations that should have frames
	incomplete     int // of those, operations missing one
	invalsPerWrite float64
	upstreamShare  float64
}

// analyse joins frames to root spans by object and time window and cuts each
// operation into its phases.
func analyse(hub *tapHub, roots [][]rootOp, s *spec) *analysis {
	byObj := map[core.ObjectID][]frameEvent{}
	for _, e := range hub.recorded() {
		byObj[e.obj] = append(byObj[e.obj], e)
	}
	an := &analysis{}
	origin, prox := hub.lookup("origin"), hub.lookup("proxy")
	var writes, invals, leafReads, upstream float64

	// An object's root spans are already in time order: one driver owns it.
	opsOf := map[*object][]rootOp{}
	var objs []*object
	for _, rs := range roots {
		for _, r := range rs {
			if _, ok := opsOf[r.obj]; !ok {
				objs = append(objs, r.obj)
			}
			opsOf[r.obj] = append(opsOf[r.obj], r)
		}
	}
	for _, o := range objs {
		evs := byObj[o.id]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].enter < evs[j].enter })
		i := 0
		for _, r := range opsOf[o] {
			for i < len(evs) && evs[i].enter < r.start {
				i++
			}
			j := i
			for j < len(evs) && evs[j].enter <= r.end {
				j++
			}
			an.ops = append(an.ops, joinedOp{rootOp: r, evs: evs[i:j]})
			i = j
		}
	}

	for k := range an.ops {
		op := &an.ops[k]
		find := func(node, peer int16, kind wire.Kind, send bool) *frameEvent {
			for i := range op.evs {
				e := &op.evs[i]
				if e.node == node && e.kind == kind && e.send == send && (peer == anyPeer || e.peer == peer) {
					return e
				}
			}
			return nil
		}
		add := func(name string, ns int64) { an.samples.add(op.phase, name, ns) }

		// Layer-agnostic frame facts: time inside Send, and sender's Send
		// entry to the peer's Recv return.
		for i := range op.evs {
			e := &op.evs[i]
			if !e.send {
				continue
			}
			if !e.cont {
				add("transport.send_call_us", e.exit-e.enter)
			}
			if r := find(e.peer, e.node, e.kind, false); r != nil {
				add("transport.oneway_us", r.exit-e.enter)
				switch e.kind {
				case wire.KindReqObjLease:
					add("ladder.oneway_request_us", r.exit-e.enter)
				case wire.KindObjLease:
					add("ladder.oneway_reply_us", r.exit-e.enter)
				}
			}
		}

		if !op.write {
			cs := find(op.node, anyPeer, wire.KindReqObjLease, true)
			if s.proxy {
				leafReads++
			}
			if cs == nil {
				continue // served from the client's cache: no frames to find
			}
			an.joined++
			cr := find(op.node, anyPeer, wire.KindObjLease, false)
			sr := find(origin, anyPeer, wire.KindReqObjLease, false)
			ss := find(origin, anyPeer, wire.KindObjLease, true)
			if cr == nil {
				an.incomplete++
				continue
			}
			add("client.miss_pre_us", cs.enter-op.start)
			add("client.miss_post_us", op.end-cr.exit)
			if sr != nil && ss != nil {
				add("server.grant_turnaround_us", ss.enter-sr.exit)
			} else if cs.peer == origin {
				an.incomplete++
			}
			if cs.peer == prox {
				pr := find(prox, op.node, wire.KindReqObjLease, false)
				ps := find(prox, op.node, wire.KindObjLease, true)
				if pr == nil || ps == nil {
					an.incomplete++
					continue
				}
				if find(prox, origin, wire.KindReqObjLease, true) == nil {
					add("proxy.hit_turnaround_us", ps.enter-pr.exit)
				} else {
					upstream++
					add("proxy.miss_turnaround_us", ps.enter-pr.exit)
				}
			}
			continue
		}

		// A write: the origin's view first.
		writes++
		an.joined++
		or := find(origin, anyPeer, wire.KindWriteReq, false)
		rs := find(origin, anyPeer, wire.KindWriteReply, true)
		var firstEnter, lastExit, lastAck int64
		for i := range op.evs {
			e := &op.evs[i]
			switch {
			case e.node == origin && e.send && e.kind == wire.KindInvalidate:
				if firstEnter == 0 || e.enter < firstEnter {
					firstEnter = e.enter
				}
				if e.exit > lastExit {
					lastExit = e.exit
				}
			case e.node == origin && !e.send && e.kind == wire.KindAckInvalidate:
				if e.exit > lastAck {
					lastAck = e.exit
				}
			case e.node != origin && e.node != prox && !e.send && e.kind == wire.KindInvalidate:
				invals++
				if ack := find(e.node, anyPeer, wire.KindAckInvalidate, true); ack != nil {
					add("client.inval_turnaround_us", ack.enter-e.exit)
				}
			}
		}
		if or == nil || rs == nil || firstEnter == 0 || lastAck == 0 {
			an.incomplete++
			continue
		}
		if lastAck < lastExit {
			lastAck = lastExit // an ack back before the last Send returned
		}
		add("server.write_plan_us", firstEnter-or.exit)
		add("server.fanout_span_us", lastExit-firstEnter)
		add("server.ack_collect_us", lastAck-lastExit)
		add("server.finish_us", rs.enter-lastAck)
		add("client.write_residual_us", (op.end-op.start)-(rs.enter-or.exit))
		if s.proxy {
			pi := find(prox, origin, wire.KindInvalidate, false)
			pa := find(prox, origin, wire.KindAckInvalidate, true)
			down := find(prox, op.node, wire.KindWriteReq, false)
			up := find(prox, origin, wire.KindWriteReq, true)
			back := find(prox, origin, wire.KindWriteReply, false)
			reply := find(prox, op.node, wire.KindWriteReply, true)
			if pi == nil || pa == nil || down == nil || up == nil || back == nil || reply == nil {
				an.incomplete++
				continue
			}
			add("proxy.inval_relay_us", pa.enter-pi.exit)
			add("proxy.write_forward_us", (up.enter-down.exit)+(reply.enter-back.exit))
		}
	}
	if writes > 0 {
		an.invalsPerWrite = invals / writes
	}
	if leafReads > 0 {
		an.upstreamShare = upstream / leafReads
	}
	return an
}

const anyPeer = -2

// writeSpans writes the trace as JSON lines, one span per line: a root span
// per operation ("trace" is shared by its children), then one child per
// frame event naming the node that saw it.
func writeSpans(path string, hub *tapHub, ops []joinedOp) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	line := func(trace, span int, name, node string, obj core.ObjectID, seq uint64, start, end int64) {
		b = append(b[:0], `{"trace":`...)
		b = strconv.AppendInt(b, int64(trace), 10)
		b = append(b, `,"span":`...)
		b = strconv.AppendInt(b, int64(span), 10)
		if span > 0 {
			b = append(b, `,"parent":0`...)
		}
		b = append(b, `,"name":`...)
		b = strconv.AppendQuote(b, name)
		b = append(b, `,"node":`...)
		b = strconv.AppendQuote(b, node)
		b = append(b, `,"object":`...)
		b = strconv.AppendQuote(b, string(obj))
		b = append(b, `,"seq":`...)
		b = strconv.AppendUint(b, seq, 10)
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, end, 10)
		b = append(b, "}\n"...)
		w.Write(b) // bufio keeps the first error; Flush reports it
	}
	hub.mu.Lock()
	names := hub.names
	hub.mu.Unlock()
	nodeName := func(id int16) string {
		if id < 0 || int(id) >= len(names) {
			return "?"
		}
		return names[id]
	}
	for i, op := range ops {
		name := "client.Read"
		if op.write {
			name = "client.Write"
		}
		line(i, 0, name, nodeName(op.node), op.obj.id, 0, op.start, op.end)
		for j, e := range op.evs {
			dir := "recv "
			if e.send {
				dir = "send "
			}
			line(i, j+1, dir+e.kind.String(), nodeName(e.node), e.obj, e.seq, e.enter, e.exit)
		}
	}
	return w.Flush()
}
