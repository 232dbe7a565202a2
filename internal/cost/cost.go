// Package cost is the wire-path cost-accounting layer of the live lease
// stack: per-message-kind frame/byte counters and encode/decode-nanosecond
// histograms, per-volume and per-connection message accounting, a
// continuous profiler capturing CPU/heap/goroutine profiles into a
// flight-recorder-style ring, and /debug handlers exposing both.
//
// The paper's evaluation currency is messages — Figures 5–7 trade server
// state against message counts per algorithm — and this package makes the
// live stack answer the same question the simulator does: how many
// messages (and bytes, and codec nanoseconds) did each protocol step cost,
// per kind, per volume, per connection?
//
// Like the rest of the observability layer, everything is pay-for-what-
// you-use: a nil *Accounting is a valid, disabled accountant whose Record
// is a single nil check and zero allocations (see BenchmarkCostDisabled),
// and an untapped network pays nothing at all.
package cost

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// maxTrackedConns bounds the per-connection table; once a node has seen
// this many distinct peers, further peers aggregate into one "(other)"
// bucket so a million-client server does not grow an unbounded map.
const maxTrackedConns = 4096

// overflowConn is the aggregation bucket for peers beyond maxTrackedConns.
const overflowConn = "(other)"

// dirCounts is one direction's frame and byte tally.
type dirCounts struct {
	frames atomic.Int64
	bytes  atomic.Int64
}

// kindCost is the full cost record for one wire kind.
type kindCost struct {
	sent   dirCounts
	recv   dirCounts
	encode metrics.Histogram
	decode metrics.Histogram
}

// volCost is the per-volume tally (message kinds that carry a VolumeID).
type volCost struct {
	sent dirCounts
	recv dirCounts
}

// connCost is the per-peer tally; it is the transport.Sink minted for each
// connection, charging both its own counters and the parent
// per-kind/per-volume tables.
type connCost struct {
	a      *Accounting
	remote string
	sent   dirCounts
	recv   dirCounts
}

// Observe implements transport.Sink.
func (c *connCost) Observe(f transport.Frame) {
	c.a.record(f.Sent, f.Msg, f.Size, f.Codec)
	dc := &c.recv
	if f.Sent {
		dc = &c.sent
	}
	dc.frames.Add(1)
	dc.bytes.Add(int64(f.Size))
}

// Accounting tallies wire-path costs for one node. All recording methods
// are lock-free (atomic adds) except the first sighting of a new volume or
// connection; everything is safe for concurrent use. A nil *Accounting is
// a valid, disabled accountant.
type Accounting struct {
	node  string
	now   func() time.Time
	start time.Time

	// kinds[0] absorbs out-of-range kind bytes (none exist in practice;
	// fakes and future kinds land there instead of panicking).
	kinds [wire.NumKinds]kindCost

	vols sync.Map // core.VolumeID -> *volCost

	connMu sync.Mutex
	conns  map[string]*connCost // keyed by remote address, redials aggregate
}

var _ transport.Tap = (*Accounting)(nil)

// New returns an accountant for node. now supplies timestamps for dump
// metadata only (never the hot path); daemons pass time.Now, tests a
// simulated clock's Now. A nil now yields zero timestamps.
func New(node string, now func() time.Time) *Accounting {
	if now == nil {
		now = func() time.Time { return time.Time{} }
	}
	return &Accounting{
		node:  node,
		now:   now,
		start: now(),
		conns: make(map[string]*connCost),
	}
}

// TapConn implements transport.Tap, minting (or reusing — redials to the
// same peer aggregate) the per-connection tally. Safe on a nil receiver,
// which leaves the connection unobserved.
func (a *Accounting) TapConn(local, remote string) transport.Sink {
	if a == nil {
		return nil
	}
	a.connMu.Lock()
	defer a.connMu.Unlock()
	c, ok := a.conns[remote]
	if !ok {
		if len(a.conns) >= maxTrackedConns {
			remote = overflowConn
			c, ok = a.conns[remote]
		}
		if !ok {
			c = &connCost{a: a, remote: remote}
			a.conns[remote] = c
		}
	}
	return c
}

// Record charges one message directly (sent direction, encoded size, codec
// time — zero when no serialization happened). Tapped connections reach it
// through their per-connection sinks; harnesses without connections may call
// it straight. Safe on a nil *Accounting: the nil check lives in this
// inlinable wrapper so disabled call sites stay allocation-free
// (BenchmarkCostDisabled gates this).
func (a *Accounting) Record(sent bool, m wire.Message, size int, codec time.Duration) {
	if a == nil {
		return
	}
	a.record(sent, m, size, codec)
}

// Enabled reports whether accounting is live.
func (a *Accounting) Enabled() bool { return a != nil }

func (a *Accounting) record(sent bool, m wire.Message, size int, codec time.Duration) {
	ki := int(m.Kind())
	if ki < 0 || ki >= wire.NumKinds {
		ki = 0
	}
	kc := &a.kinds[ki]
	dc, h := &kc.recv, &kc.decode
	if sent {
		dc, h = &kc.sent, &kc.encode
	}
	dc.frames.Add(1)
	dc.bytes.Add(int64(size))
	// codec == 0 means "no serialization happened" (in-memory transport);
	// recording it would drown the histogram in zeros.
	if codec > 0 {
		h.Observe(codec)
	}
	if vol := volumeOf(m); vol != "" {
		vc := a.volume(vol)
		vdc := &vc.recv
		if sent {
			vdc = &vc.sent
		}
		vdc.frames.Add(1)
		vdc.bytes.Add(int64(size))
	}
}

// volume returns the tally for id, creating it on first sight. The Load
// fast path keeps the steady state allocation-free.
func (a *Accounting) volume(id core.VolumeID) *volCost {
	if v, ok := a.vols.Load(id); ok {
		return v.(*volCost)
	}
	v, _ := a.vols.LoadOrStore(id, &volCost{})
	return v.(*volCost)
}

// volumeOf extracts the volume a message belongs to; kinds that do not
// carry a VolumeID (object-level and write traffic) return "".
func volumeOf(m wire.Message) core.VolumeID {
	switch v := m.(type) {
	case wire.ReqVolLease:
		return v.Volume
	case wire.VolLease:
		return v.Volume
	case wire.AckInvalidate:
		return v.Volume
	case wire.MustRenewAll:
		return v.Volume
	case wire.RenewObjLeases:
		return v.Volume
	case wire.InvalRenew:
		return v.Volume
	}
	return ""
}

// Totals is the cross-kind aggregate.
type Totals struct {
	MessagesSent int64 `json:"messages_sent"`
	MessagesRecv int64 `json:"messages_recv"`
	BytesSent    int64 `json:"bytes_sent"`
	BytesRecv    int64 `json:"bytes_recv"`
}

// Totals sums the per-kind tallies. Safe on a nil receiver.
func (a *Accounting) Totals() Totals {
	var t Totals
	if a == nil {
		return t
	}
	for i := range a.kinds {
		kc := &a.kinds[i]
		t.MessagesSent += kc.sent.frames.Load()
		t.MessagesRecv += kc.recv.frames.Load()
		t.BytesSent += kc.sent.bytes.Load()
		t.BytesRecv += kc.recv.bytes.Load()
	}
	return t
}

// Register exports the accounting as lease_cost_* series: per-kind frame
// and byte counters (bounded cardinality — the protocol has 13 kinds), the
// cross-kind totals leasemon turns into msgs/s and bytes/s, and aggregate
// codec quantiles. Per-volume and per-connection tallies are served by the
// /debug/cost handler instead of /metrics so workload-sized cardinality
// never lands in the scrape path.
func (a *Accounting) Register(reg *obs.Registry) {
	if a == nil || reg == nil {
		return
	}
	for k := 1; k < wire.NumKinds; k++ {
		kc := &a.kinds[k]
		kindName := wire.Kind(k).String()
		for _, dir := range []struct {
			name string
			dc   *dirCounts
		}{{"sent", &kc.sent}, {"recv", &kc.recv}} {
			dc := dir.dc
			reg.GaugeFunc(fmt.Sprintf("lease_cost_frames_total{node=%q,kind=%q,dir=%q}", a.node, kindName, dir.name),
				func() float64 { return float64(dc.frames.Load()) })
			reg.GaugeFunc(fmt.Sprintf("lease_cost_frame_bytes_total{node=%q,kind=%q,dir=%q}", a.node, kindName, dir.name),
				func() float64 { return float64(dc.bytes.Load()) })
		}
	}
	for _, dir := range []string{"sent", "recv"} {
		dir := dir
		reg.GaugeFunc(fmt.Sprintf("lease_cost_messages_total{node=%q,dir=%q}", a.node, dir),
			func() float64 {
				t := a.Totals()
				if dir == "sent" {
					return float64(t.MessagesSent)
				}
				return float64(t.MessagesRecv)
			})
		reg.GaugeFunc(fmt.Sprintf("lease_cost_bytes_total{node=%q,dir=%q}", a.node, dir),
			func() float64 {
				t := a.Totals()
				if dir == "sent" {
					return float64(t.BytesSent)
				}
				return float64(t.BytesRecv)
			})
	}
	for _, q := range []struct {
		label string
		q     float64
	}{{"0.5", 0.50}, {"0.99", 0.99}} {
		q := q
		reg.GaugeFunc(fmt.Sprintf("lease_cost_encode_ns{node=%q,quantile=%q}", a.node, q.label),
			func() float64 { return float64(a.codecQuantile(true, q.q)) })
		reg.GaugeFunc(fmt.Sprintf("lease_cost_decode_ns{node=%q,quantile=%q}", a.node, q.label),
			func() float64 { return float64(a.codecQuantile(false, q.q)) })
	}
}

// codecQuantile merges the per-kind codec histograms and reports one
// quantile. Scrape-time only; never on the frame path.
func (a *Accounting) codecQuantile(encode bool, q float64) int64 {
	if a == nil {
		return 0
	}
	var merged metrics.Histogram
	for i := range a.kinds {
		if encode {
			merged.Merge(&a.kinds[i].encode)
		} else {
			merged.Merge(&a.kinds[i].decode)
		}
	}
	return int64(merged.Quantile(q))
}

// Dump is the /debug/cost JSON shape (leased serves the one a load run
// leaves behind) and what `figures -cost` renders into the Figure 5–7 TSV.
type Dump struct {
	Node       string       `json:"node"`
	StartedAt  time.Time    `json:"started_at,omitempty"`
	CapturedAt time.Time    `json:"captured_at,omitempty"`
	Totals     Totals       `json:"totals"`
	Kinds      []KindStat   `json:"kinds"`
	Volumes    []VolumeStat `json:"volumes,omitempty"`
	Conns      []ConnStat   `json:"conns,omitempty"`
}

// KindStat is one wire kind's cost record in dump form.
type KindStat struct {
	Kind       string       `json:"kind"`
	FramesSent int64        `json:"frames_sent"`
	FramesRecv int64        `json:"frames_recv"`
	BytesSent  int64        `json:"bytes_sent"`
	BytesRecv  int64        `json:"bytes_recv"`
	Encode     *HistSummary `json:"encode,omitempty"`
	Decode     *HistSummary `json:"decode,omitempty"`
}

// HistSummary is the JSON form of a codec-time histogram for /debug/cost.
type HistSummary struct {
	Count  int64 `json:"count"`
	MeanNs int64 `json:"mean_ns,omitempty"`
	P50Ns  int64 `json:"p50_ns,omitempty"`
	P99Ns  int64 `json:"p99_ns,omitempty"`
	MaxNs  int64 `json:"max_ns,omitempty"`
}

// summarize snapshots h; nil when it is empty, so the field is omitted.
func summarize(h *metrics.Histogram) *HistSummary {
	if h.Count() == 0 {
		return nil
	}
	return &HistSummary{
		Count:  h.Count(),
		MeanNs: int64(h.Mean()),
		P50Ns:  int64(h.Quantile(0.50)),
		P99Ns:  int64(h.Quantile(0.99)),
		MaxNs:  int64(h.Max()),
	}
}

// Messages is the kind's message count from a single node's vantage: each
// message touches a node once, as a send or a receive, so on a daemon the
// two directions partition the kinds (requests are all-recv, grants
// all-sent) and in a self-contained harness that accounts both endpoints
// they are equal. max(sent, recv) is therefore "messages of this kind"
// in both deployments — the simulator-comparable number figures -cost uses.
func (k KindStat) Messages() int64 {
	if k.FramesSent > k.FramesRecv {
		return k.FramesSent
	}
	return k.FramesRecv
}

// VolumeStat is one volume's tally in dump form.
type VolumeStat struct {
	Volume     string `json:"volume"`
	FramesSent int64  `json:"frames_sent"`
	FramesRecv int64  `json:"frames_recv"`
	BytesSent  int64  `json:"bytes_sent"`
	BytesRecv  int64  `json:"bytes_recv"`
}

// ConnStat is one peer's tally in dump form.
type ConnStat struct {
	Remote     string `json:"remote"`
	FramesSent int64  `json:"frames_sent"`
	FramesRecv int64  `json:"frames_recv"`
	BytesSent  int64  `json:"bytes_sent"`
	BytesRecv  int64  `json:"bytes_recv"`
}

// Snapshot freezes the tallies into a Dump: kinds with traffic in wire
// order, volumes by name, connections by total frames (busiest first).
// Safe on a nil receiver (returns the zero Dump).
func (a *Accounting) Snapshot() Dump {
	if a == nil {
		return Dump{}
	}
	d := Dump{
		Node:       a.node,
		StartedAt:  a.start,
		CapturedAt: a.now(),
		Totals:     a.Totals(),
	}
	for k := 1; k < wire.NumKinds; k++ {
		kc := &a.kinds[k]
		ks := KindStat{
			Kind:       wire.Kind(k).String(),
			FramesSent: kc.sent.frames.Load(),
			FramesRecv: kc.recv.frames.Load(),
			BytesSent:  kc.sent.bytes.Load(),
			BytesRecv:  kc.recv.bytes.Load(),
		}
		if ks.FramesSent == 0 && ks.FramesRecv == 0 {
			continue
		}
		ks.Encode = summarize(&kc.encode)
		ks.Decode = summarize(&kc.decode)
		d.Kinds = append(d.Kinds, ks)
	}
	a.vols.Range(func(key, val any) bool {
		vc := val.(*volCost)
		d.Volumes = append(d.Volumes, VolumeStat{
			Volume:     string(key.(core.VolumeID)),
			FramesSent: vc.sent.frames.Load(),
			FramesRecv: vc.recv.frames.Load(),
			BytesSent:  vc.sent.bytes.Load(),
			BytesRecv:  vc.recv.bytes.Load(),
		})
		return true
	})
	sort.Slice(d.Volumes, func(i, j int) bool { return d.Volumes[i].Volume < d.Volumes[j].Volume })
	a.connMu.Lock()
	for _, c := range a.conns {
		d.Conns = append(d.Conns, ConnStat{
			Remote:     c.remote,
			FramesSent: c.sent.frames.Load(),
			FramesRecv: c.recv.frames.Load(),
			BytesSent:  c.sent.bytes.Load(),
			BytesRecv:  c.recv.bytes.Load(),
		})
	}
	a.connMu.Unlock()
	sort.Slice(d.Conns, func(i, j int) bool {
		ti := d.Conns[i].FramesSent + d.Conns[i].FramesRecv
		tj := d.Conns[j].FramesSent + d.Conns[j].FramesRecv
		if ti != tj {
			return ti > tj
		}
		return d.Conns[i].Remote < d.Conns[j].Remote
	})
	return d
}
