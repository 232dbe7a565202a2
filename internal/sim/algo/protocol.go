package algo

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Forever disables the delayed-invalidation discard timer: clients stay in
// the Inactive set (and their pending messages are retained) indefinitely,
// the paper's Delay(tv, t, ∞) configuration.
const Forever = time.Duration(math.MaxInt64)

// Volume runs Volume Leases (Section 3.1) and Volume Leases with Delayed
// Invalidations (Section 3.2) on the shipped protocol: one core.Table per
// trace server and one core.Holder per client, the code leased and
// leaseproxy run. Every lease decision (grant, Inactive set, pending
// delivery, discard, reconnection) is core's; Volume only charges the
// paper's message classes for each reply, records whether each read
// returned the table's committed version, and records each server's
// Table.Stats state after every operation that sends a message, at every
// lease expiry, and at expire + d.
type Volume struct {
	env     *sim.Env
	cfg     core.Config
	groups  int // volumes per server; <=1 means one volume per server
	servers map[string]*server
	holders map[string]*core.Holder
}

// server is one trace server: its table, the ids of its objects, and the
// state last recorded for it.
type server struct {
	name  string
	table *core.Table
	objs  map[string]objectIDs
	state int64
}

// objectIDs names one trace object in core: the object (its server-qualified
// name, unique across the holders' servers) and its volume.
type objectIDs struct {
	oid core.ObjectID
	vid core.VolumeID
}

var _ sim.Algorithm = (*Volume)(nil)

// NewVolume constructs Volume Leases with volume timeout tv and object
// timeout t, using the paper's default grouping of one volume per server.
func NewVolume(env *sim.Env, tv, t time.Duration) *Volume {
	return NewVolumeGrouped(env, tv, t, 1)
}

// NewVolumeGrouped splits each server's objects across the given number of
// volumes (by object-name hash). The paper leaves "more sophisticated
// grouping" as future work; this knob quantifies the cost of fragmenting a
// server into several volumes: each fragment needs its own short-lease
// renewals, so amortization shrinks as groups grow.
func NewVolumeGrouped(env *sim.Env, tv, t time.Duration, groups int) *Volume {
	return newVolume(env, core.Config{ObjectLease: t, VolumeLease: tv, Mode: core.ModeEager}, groups)
}

// NewDelay constructs Delayed Invalidations with volume timeout tv, object
// timeout t, and inactive-discard time d (Forever for the paper's ∞).
func NewDelay(env *sim.Env, tv, t, d time.Duration) *Volume {
	cfg := core.Config{ObjectLease: t, VolumeLease: tv, Mode: core.ModeDelayed}
	if d != Forever {
		cfg.InactiveDiscard = d
	}
	return newVolume(env, cfg, 1)
}

func newVolume(env *sim.Env, cfg core.Config, groups int) *Volume {
	return &Volume{env: env, cfg: cfg, groups: groups,
		servers: make(map[string]*server), holders: make(map[string]*core.Holder)}
}

// Name implements sim.Algorithm.
func (v *Volume) Name() string {
	tv, t := seconds(v.cfg.VolumeLease), seconds(v.cfg.ObjectLease)
	if v.cfg.Mode == core.ModeEager {
		return fmt.Sprintf("Volume(%s,%s)", tv, t)
	}
	d := "inf" // core reads InactiveDiscard 0 as ∞
	if v.cfg.InactiveDiscard > 0 {
		d = seconds(v.cfg.InactiveDiscard)
	}
	return fmt.Sprintf("Delay(%s,%s,%s)", tv, t, d)
}

// server returns the table for name, creating it on first mention.
func (v *Volume) server(name string) *server {
	s := v.servers[name]
	if s == nil {
		s = &server{name: name, table: must(core.NewTable(v.cfg)), objs: make(map[string]objectIDs)}
		v.servers[name] = s
	}
	return s
}

// object resolves a trace object of s, creating it (and its volume) in the
// table on first mention.
func (v *Volume) object(s *server, object string) objectIDs {
	ids, ok := s.objs[object]
	if ok {
		return ids
	}
	ids = objectIDs{oid: core.ObjectID(s.name + "/" + object), vid: core.VolumeID(s.name)}
	if v.groups > 1 {
		ids.vid += core.VolumeID("/vol" + strconv.Itoa(int(fnv32(object)%uint32(v.groups))))
	}
	if err := s.table.CreateVolume(ids.vid); !errors.Is(err, core.ErrDuplicate) {
		check(err)
	}
	check(s.table.CreateObject(ids.vid, ids.oid, nil))
	s.objs[object] = ids
	return ids
}

// holder returns client's holder, creating it on first mention.
func (v *Volume) holder(client string) *core.Holder {
	h := v.holders[client]
	if h == nil {
		h = core.NewHolder(0)
		v.holders[client] = h
	}
	return h
}

// anchor is a holder's clock reading at now: its monotonic timeline is
// simulated time, so a lease is trusted exactly until its expiry.
func anchor(now time.Time) core.Anchor {
	return core.Anchor{Mono: time.Duration(now.UnixNano()), Wall: now}
}

// HandleRead implements sim.Algorithm: Figure 4's read as the holder's
// core.Read steps it, charging each request it names. The read takes one
// instant, so every check reads the same clock.
func (v *Volume) HandleRead(now time.Time, e trace.Event) {
	s := v.server(e.Server)
	ids := v.object(s, e.Object)
	client, h, a := core.ClientID(e.Client), v.holder(e.Client), anchor(now)
	r, st := h.Read(ids.vid, ids.oid, a.Mono)
	contacted := st.Next != core.ReadDone
	for st.Next != core.ReadDone {
		if st.Next == core.ReadRenewVolume {
			v.renewVolume(now, s, client, h, ids.vid)
			st = must(r.Renewed(a.Mono))
			continue
		}
		v.msg(now, s, metrics.MsgObjLeaseReq, sim.CtrlBytes)
		g := must(s.table.GrantObjectLease(now, client, ids.oid, st.Version))
		// The reply carries the data iff the holder's copy is missing or
		// old. The simulated objects hold no bytes, so decide from the
		// versions.
		withData := g.Version != st.Version
		if withData {
			v.msg(now, s, metrics.MsgData, sim.DataBytes(e.Size))
		} else {
			v.msg(now, s, metrics.MsgObjLease, sim.CtrlBytes)
		}
		st = must(r.Step(g, withData, a))
		v.objectGranted(s, g)
	}
	current, _, err := s.table.Read(ids.oid)
	check(err)
	v.env.Rec.Read(st.Version != current)
	if contacted {
		v.record(now, s, true)
	}
}

// renewVolume runs the volume-lease conversation the holder's core.Renewal
// steps, charging each message as the paper's model does: it folds a pending
// delivery's grant into the vector (Step's Folded). Simulated servers never
// restart, so the holder presents the volume's epoch even on first contact.
// The conversation takes one instant, so no write lands in it.
func (v *Volume) renewVolume(now time.Time, s *server, client core.ClientID, h *core.Holder, vid core.VolumeID) {
	r, req := h.RenewVolume(vid, must(s.table.VolumeEpoch(vid)))
	v.msg(now, s, metrics.MsgVolLeaseReq, sim.CtrlBytes)
	g := must(s.table.RequestVolumeLease(now, client, vid, req.Epoch))
	st := r.Step(g, anchor(now))
	for ; st.Next.Kind != core.RenewalDone; st = r.Step(g, anchor(now)) {
		switch req := st.Next; req.Kind {
		case core.SendRenewObjLeases:
			v.msg(now, s, metrics.MsgMustRenewAll, sim.CtrlBytes)
			v.msg(now, s, metrics.MsgRenewObjLeases, sim.CtrlBytes+int64(len(req.Held))*sim.LeaseRecordBytes)
			g = must(s.table.HandleRenewObjLeases(now, client, vid, 0, req.Held))
		case core.SendAckInvalidate:
			v.msg(now, s, metrics.MsgInvalRenew, sim.CtrlBytes+int64(len(g.Invalidate)+len(g.Renew))*sim.LeaseRecordBytes)
			v.msg(now, s, metrics.MsgAckInvalidate, sim.CtrlBytes)
			for _, o := range g.Renew {
				v.objectGranted(s, o)
			}
			g = must(s.table.ConfirmVolume(now, client, vid, 0, req.Acked))
		default:
			panic(fmt.Sprintf("algo: volume conversation answered %v", g.Status))
		}
	}
	if !st.Folded {
		v.msg(now, s, metrics.MsgVolLease, sim.CtrlBytes)
	}
	expire := g.Expire
	v.env.Schedule(expire, func(now time.Time) {
		v.record(now, s, false)
		// The discard clock starts when the lease lapses unrenewed.
		if exp, _, _, _ := h.Volume(vid); v.cfg.InactiveDiscard > 0 && exp.Equal(expire) {
			v.env.Schedule(expire.Add(v.cfg.InactiveDiscard), func(now time.Time) { v.sweep(now, s) })
		}
	})
}

// sweep applies the discard policy at an expire + d instant.
func (v *Volume) sweep(now time.Time, s *server) {
	_, discarded := s.table.Sweep(now)
	v.record(now, s, len(discarded) > 0)
}

// objectGranted schedules a state record at an object lease's expiry.
func (v *Volume) objectGranted(s *server, g core.ObjectGrant) {
	v.env.Schedule(g.Expire, func(now time.Time) { v.record(now, s, false) })
}

// HandleWrite implements sim.Algorithm: Figure 3's write. The table names
// the holders to invalidate now (each one an invalidation and its ack) and,
// in delayed mode, those whose invalidation it queued instead.
func (v *Volume) HandleWrite(now time.Time, e trace.Event) {
	s := v.server(e.Server)
	ids := v.object(s, e.Object)
	plan := must(s.table.BeginWrite(now, ids.oid))
	written := []core.ObjectID{ids.oid}
	for _, n := range plan.Notify {
		v.msg(now, s, metrics.MsgInvalidate, sim.CtrlBytes)
		v.msg(now, s, metrics.MsgAckInvalidate, sim.CtrlBytes)
		v.holders[string(n.Client)].Invalidate(written)
		check(s.table.AckWriteInvalidate(now, n.Client, ids.oid))
	}
	must(s.table.FinishWrite(now, ids.oid, nil, nil))
	v.env.Rec.Write(0)
	if len(plan.Notify)+len(plan.Queued)+len(plan.Dropped) > 0 {
		v.record(now, s, true)
	}
}

// msg records one protocol message involving s.
func (v *Volume) msg(now time.Time, s *server, class metrics.MsgClass, bytes int64) {
	v.env.Rec.Message(s.name, class, bytes, now)
}

// record sets s's state to its table's StateBytes at now. It records when
// the size changed, or when force is set: an operation that changed records
// always marks its instant, even if they cancel out, so the time-weighted
// average sums the same intervals however the records moved.
func (v *Volume) record(now time.Time, s *server, force bool) {
	b := s.table.Stats(now).StateBytes
	if force || b != s.state {
		s.state = b
		v.env.Rec.SetState(s.name, now, b)
	}
}

// must and check panic on an error from core: the adapter asks only about
// objects and volumes it created, under a configuration its constructors
// build from positive timeouts, so an error is a bug in the adapter or core.
func must[T any](v T, err error) T {
	check(err)
	return v
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
