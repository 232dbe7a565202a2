// Package audit implements an online consistency auditor for the volume
// lease protocol. It attaches to the observability event stream
// (internal/obs) as a sink and maintains a shadow model of lease state per
// (client, volume, object), checking the paper's safety invariants on every
// event:
//
//   - read-validity: a client serves a cached read only while it holds
//     valid leases on both the object and its volume (Section 3).
//   - write-safety: a write completes only when every reachable holder has
//     acknowledged the invalidation or let a required lease expire.
//   - delayed-ordering: an Inactive client's queued invalidations are
//     delivered and acknowledged before its volume lease is renewed
//     (Section 3.1.1).
//   - discard-window: a client moves from Inactive to Unreachable only
//     after the discard time d has elapsed since its volume lease expired.
//   - reconnect-skipped: an Unreachable client regains a volume lease only
//     through the reconnection protocol (MUST_RENEW_ALL).
//   - staleness-bound: the staleness observed on any stale read never
//     exceeds the analytic bound min(t, t_v) (Table 1).
//
// It is the discrete-event simulator's oracle: algorithms emit these events
// through sim.Env.Emit and declare their invariant profile via AuditConfig.
// The simulation runs on one clock, so the model judges lease validity from
// the expiry times carried in grant events against event timestamps, with
// no slack. (The live stack is judged from its clients' side, by
// internal/history.)
//
// Every invariant is scoped to one (client, volume, object) lineage, never
// across volumes, and Observe serializes concurrent callers.
package audit

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Invariant rule names, used in Violation.Rule.
const (
	RuleReadValidity     = "read-validity"
	RuleWriteSafety      = "write-safety"
	RuleDelayedOrdering  = "delayed-ordering"
	RuleDiscardWindow    = "discard-window"
	RuleReconnectSkipped = "reconnect-skipped"
	RuleStalenessBound   = "staleness-bound"
)

// Config describes the protocol variant under audit: which leases a read
// requires and the lease terms (for the analytic staleness bound and the
// discard window).
type Config struct {
	// ObjectLease and VolumeLease are the configured terms t and t_v.
	// They back the analytic staleness bound and serve as fallback expiry
	// when a grant event carries none.
	ObjectLease time.Duration
	VolumeLease time.Duration
	// InactiveDiscard is the paper's d; 0 disables the discard-window check.
	InactiveDiscard time.Duration
	// RequireObjectLease / RequireVolumeLease select which leases the
	// read-validity and write-safety invariants demand. Volume leases
	// imply both; plain object leases only the former; Poll/Callback
	// neither.
	RequireObjectLease bool
	RequireVolumeLease bool
	// CheckStaleness enables the staleness-bound violation (staleness is
	// always *measured* when determinable; this only arms the check).
	CheckStaleness bool
	// StalenessBound overrides the analytic bound min(t, t_v); 0 derives
	// it from the lease terms.
	StalenessBound time.Duration
}

// Bound reports the effective staleness bound: StalenessBound when set,
// otherwise min(t, t_v) over the non-zero lease terms, 0 when unbounded.
func (c Config) Bound() time.Duration {
	if c.StalenessBound > 0 {
		return c.StalenessBound
	}
	var b time.Duration
	if c.ObjectLease > 0 {
		b = c.ObjectLease
	}
	if c.VolumeLease > 0 && (b == 0 || c.VolumeLease < b) {
		b = c.VolumeLease
	}
	return b
}

// Profiled is implemented by simulator algorithms that declare how they
// should be audited. Algorithms without a profile are not audited.
type Profiled interface {
	AuditConfig() Config
}

// Violation is one detected invariant breach.
type Violation struct {
	Rule   string        `json:"rule"`
	At     time.Time     `json:"at"`
	Client core.ClientID `json:"client,omitempty"`
	Object core.ObjectID `json:"object,omitempty"`
	Volume core.VolumeID `json:"volume,omitempty"`
	Detail string        `json:"detail"`
}

func (v Violation) String() string {
	s := fmt.Sprintf("%s at %s", v.Rule, v.At.Format(time.RFC3339Nano))
	if v.Client != "" {
		s += " client=" + string(v.Client)
	}
	if v.Object != "" {
		s += " obj=" + string(v.Object)
	}
	if v.Volume != "" {
		s += " vol=" + string(v.Volume)
	}
	return s + ": " + v.Detail
}

// coState is the model's view of one (client, object) pair: the lease the
// client holds and the version it caches.
type coState struct {
	expire  time.Time
	version core.Version
	hasCopy bool
}

// cvKey indexes per-(client, volume) state.
type cvKey struct {
	client core.ClientID
	volume core.VolumeID
}

// cvState is the model's view of one (client, volume) pair.
type cvState struct {
	expire time.Time
	// pending holds queued delayed invalidations (the Inactive set);
	// pendingSince is when the client's volume lease expired.
	pending      map[core.ObjectID]struct{}
	pendingSince time.Time
	unreachable  bool
	reconnecting bool
}

// commit records one applied write for staleness measurement.
type commit struct {
	version core.Version
	at      time.Time
}

// objState is the model's view of one object at its server.
type objState struct {
	version core.Version
	// history retains recent commits (version ascending) so a stale read
	// of version v can be dated against the first commit that superseded
	// v. Capped; reads staler than the retained window are not measured.
	history []commit
}

const historyCap = 64

// Auditor is an obs.Sink that checks protocol invariants online. All
// methods are safe for concurrent use.
type Auditor struct {
	cfg Config

	mu      sync.Mutex
	holders map[core.ObjectID]map[core.ClientID]*coState
	vols    map[cvKey]*cvState
	objects map[core.ObjectID]*objState

	violations []Violation // the first quotedViolations
	byRule     map[string]int64

	events     atomic.Int64
	totalViol  atomic.Int64
	staleReads atomic.Int64
	stale      *metrics.Histogram
}

// quotedViolations is how many violations the auditor keeps to quote; the
// counts cover every one.
const quotedViolations = 3

// New builds an auditor for the given protocol profile.
func New(cfg Config) *Auditor {
	return &Auditor{
		cfg:     cfg,
		holders: make(map[core.ObjectID]map[core.ClientID]*coState),
		vols:    make(map[cvKey]*cvState),
		objects: make(map[core.ObjectID]*objState),
		byRule:  make(map[string]int64),
		stale:   new(metrics.Histogram),
	}
}

// Observe feeds one protocol event into the model. Implements obs.Sink.
func (a *Auditor) Observe(e obs.Event) {
	a.events.Add(1)
	a.mu.Lock()
	defer a.mu.Unlock()
	switch e.Type {
	case obs.EvObjLeaseGrant:
		a.objLeaseGrant(e)
	case obs.EvVolLeaseGrant:
		a.volLeaseGrant(e)
	case obs.EvInvalAcked:
		a.dropCopy(e.Client, e.Object)
	case obs.EvReconnect:
		a.reconnect(e)
	case obs.EvUnreachable:
		a.unreachable(e)
	case obs.EvInvalQueued:
		a.invalQueued(e)
	case obs.EvPendingDelivered:
		a.pendingDelivered(e)
	case obs.EvCacheRead:
		a.cacheRead(e)
	case obs.EvWriteApplied:
		a.writeApplied(e)
	}
}

// violate records one breach (under a.mu).
func (a *Auditor) violate(v Violation) {
	a.totalViol.Add(1)
	a.byRule[v.Rule]++
	if len(a.violations) < quotedViolations {
		a.violations = append(a.violations, v)
	}
}

// holder returns (creating) the (client, object) state.
func (a *Auditor) holder(oid core.ObjectID, c core.ClientID) *coState {
	m := a.holders[oid]
	if m == nil {
		m = make(map[core.ClientID]*coState)
		a.holders[oid] = m
	}
	co := m[c]
	if co == nil {
		co = &coState{}
		m[c] = co
	}
	return co
}

// clientVol returns (creating) the (client, volume) state.
func (a *Auditor) clientVol(c core.ClientID, v core.VolumeID) *cvState {
	k := cvKey{client: c, volume: v}
	cv := a.vols[k]
	if cv == nil {
		cv = &cvState{}
		a.vols[k] = cv
	}
	return cv
}

func (a *Auditor) objLeaseGrant(e obs.Event) {
	co := a.holder(e.Object, e.Client)
	co.expire = e.Expire
	if co.expire.IsZero() && a.cfg.ObjectLease > 0 {
		co.expire = e.At.Add(a.cfg.ObjectLease)
	}
	co.version = e.Version
	co.hasCopy = true
	// The grant proves the server's version is at least e.Version; commit
	// times still come only from EvWriteApplied.
	obj := a.object(e.Object)
	if e.Version > obj.version {
		obj.version = e.Version
	}
}

func (a *Auditor) object(oid core.ObjectID) *objState {
	obj := a.objects[oid]
	if obj == nil {
		obj = &objState{}
		a.objects[oid] = obj
	}
	return obj
}

func (a *Auditor) volLeaseGrant(e obs.Event) {
	cv := a.clientVol(e.Client, e.Volume)
	if len(cv.pending) > 0 {
		a.violate(Violation{
			Rule: RuleDelayedOrdering, At: e.At, Client: e.Client, Volume: e.Volume,
			Detail: fmt.Sprintf("volume lease granted with %d queued invalidations undelivered", len(cv.pending)),
		})
	}
	if cv.unreachable && !cv.reconnecting {
		a.violate(Violation{
			Rule: RuleReconnectSkipped, At: e.At, Client: e.Client, Volume: e.Volume,
			Detail: "volume lease granted to an Unreachable client without the reconnection protocol",
		})
	}
	cv.expire = e.Expire
	if cv.expire.IsZero() && a.cfg.VolumeLease > 0 {
		cv.expire = e.At.Add(a.cfg.VolumeLease)
	}
	cv.pending = nil
	cv.pendingSince = time.Time{}
	cv.unreachable = false
	cv.reconnecting = false
}

func (a *Auditor) dropCopy(c core.ClientID, oid core.ObjectID) {
	if co := a.holders[oid][c]; co != nil {
		co.hasCopy = false
	}
}

func (a *Auditor) reconnect(e obs.Event) {
	cv := a.clientVol(e.Client, e.Volume)
	cv.reconnecting = true
	// Queued invalidations are superseded by the renew-all vector.
	cv.pending = nil
	cv.pendingSince = time.Time{}
	// So is copy state: MUST_RENEW_ALL makes the client re-enumerate every
	// cached object, and the renewal's grant/invalidate vector rebuilds the
	// model. A copy the client no longer reports — say, an invalidation it
	// applied whose ack was lost to the partition — must not linger and be
	// judged against later writes.
	for _, holders := range a.holders {
		if co := holders[e.Client]; co != nil {
			co.hasCopy = false
		}
	}
}

func (a *Auditor) unreachable(e obs.Event) {
	cv := a.clientVol(e.Client, e.Volume)
	if a.cfg.InactiveDiscard > 0 && len(cv.pending) > 0 && !cv.pendingSince.IsZero() {
		deadline := cv.pendingSince.Add(a.cfg.InactiveDiscard)
		if e.At.Before(deadline) {
			a.violate(Violation{
				Rule: RuleDiscardWindow, At: e.At, Client: e.Client, Volume: e.Volume,
				Detail: fmt.Sprintf("Inactive client discarded %v before the window d=%v elapsed",
					deadline.Sub(e.At), a.cfg.InactiveDiscard),
			})
		}
	}
	cv.unreachable = true
	cv.pending = nil
	cv.pendingSince = time.Time{}
}

func (a *Auditor) invalQueued(e obs.Event) {
	cv := a.clientVol(e.Client, e.Volume)
	if cv.pending == nil {
		cv.pending = make(map[core.ObjectID]struct{})
	}
	if len(cv.pending) == 0 {
		// The discard window runs from when the volume lease expired; the
		// event may carry that bound explicitly, otherwise the model's
		// last granted expiry is exactly the server's bound.
		switch {
		case !e.Expire.IsZero():
			cv.pendingSince = e.Expire
		case !cv.expire.IsZero():
			cv.pendingSince = cv.expire
		default:
			cv.pendingSince = e.At
		}
	}
	cv.pending[e.Object] = struct{}{}
}

func (a *Auditor) pendingDelivered(e obs.Event) {
	cv := a.clientVol(e.Client, e.Volume)
	cv.pending = nil
	cv.pendingSince = time.Time{}
}

// leaseValid reports whether a lease expiring at expire is still valid at
// the event time.
func leaseValid(expire, at time.Time) bool {
	return !expire.IsZero() && expire.After(at)
}

func (a *Auditor) cacheRead(e obs.Event) {
	if a.cfg.RequireObjectLease {
		co := a.holders[e.Object][e.Client]
		if co == nil || !leaseValid(co.expire, e.At) {
			detail := "cached read without an object lease"
			if co != nil {
				detail = fmt.Sprintf("cached read %v after the object lease expired", e.At.Sub(co.expire))
			}
			a.violate(Violation{
				Rule: RuleReadValidity, At: e.At, Client: e.Client,
				Object: e.Object, Volume: e.Volume, Detail: detail,
			})
		}
	}
	if a.cfg.RequireVolumeLease {
		cv := a.vols[cvKey{client: e.Client, volume: e.Volume}]
		if cv == nil || !leaseValid(cv.expire, e.At) {
			detail := "cached read without a volume lease"
			if cv != nil {
				detail = fmt.Sprintf("cached read %v after the volume lease expired", e.At.Sub(cv.expire))
			}
			a.violate(Violation{
				Rule: RuleReadValidity, At: e.At, Client: e.Client,
				Object: e.Object, Volume: e.Volume, Detail: detail,
			})
		}
	}
	a.measureStaleness(e)
}

// measureStaleness dates a stale read against the first commit that
// superseded the version read.
func (a *Auditor) measureStaleness(e obs.Event) {
	obj := a.objects[e.Object]
	if obj == nil || e.Version >= obj.version {
		return
	}
	a.staleReads.Add(1)
	var since time.Time
	for _, c := range obj.history {
		if c.version > e.Version {
			since = c.at
			break
		}
	}
	if since.IsZero() {
		return // commit predates the retained history; not measurable
	}
	staleness := e.At.Sub(since)
	if staleness < 0 {
		staleness = 0
	}
	a.stale.Observe(staleness)
	if bound := a.cfg.Bound(); a.cfg.CheckStaleness && bound > 0 && staleness > bound {
		a.violate(Violation{
			Rule: RuleStalenessBound, At: e.At, Client: e.Client,
			Object: e.Object, Volume: e.Volume,
			Detail: fmt.Sprintf("read version %d was %v stale, exceeding the bound min(t,t_v)=%v",
				e.Version, staleness, bound),
		})
	}
}

func (a *Auditor) writeApplied(e obs.Event) {
	obj := a.object(e.Object)
	if e.Version > obj.version {
		obj.version = e.Version
	}
	obj.history = append(obj.history, commit{version: e.Version, at: e.At})
	if len(obj.history) > historyCap {
		obj.history = obj.history[len(obj.history)-historyCap:]
	}
	if !a.cfg.RequireObjectLease && !a.cfg.RequireVolumeLease {
		return
	}
	for c, co := range a.holders[e.Object] {
		if !co.hasCopy || co.version >= e.Version {
			continue
		}
		// A holder endangers the write only if every lease a read requires
		// is still valid at commit time.
		if a.cfg.RequireObjectLease && !co.expire.After(e.At) {
			continue
		}
		if a.cfg.RequireVolumeLease {
			cv := a.vols[cvKey{client: c, volume: e.Volume}]
			if cv == nil || !cv.expire.After(e.At) {
				continue
			}
			if cv.unreachable || cv.reconnecting || len(cv.pending) > 0 {
				continue
			}
		}
		a.violate(Violation{
			Rule: RuleWriteSafety, At: e.At, Client: c,
			Object: e.Object, Volume: e.Volume,
			Detail: fmt.Sprintf("write to version %d completed while the client still held version %d under valid leases",
				e.Version, co.version),
		})
	}
}
