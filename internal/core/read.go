package core

import (
	"errors"
	"fmt"
	"time"
)

// ErrLeasesNotHeld reports a read that ran out of passes (see Read) before
// it found both leases valid at once.
var ErrLeasesNotHeld = errors.New("core: could not hold both leases")

// ReadNext names what a read needs next.
type ReadNext int

const (
	// ReadDone: both leases are valid; the step's Data answers the read.
	ReadDone ReadNext = iota
	// ReadRenewVolume: run the volume conversation (Holder.RenewVolume),
	// then call Renewed.
	ReadRenewVolume
	// ReadSendReqObjLease: send REQ_OBJ_LEASE presenting the step's
	// Version, then call Step with the reply.
	ReadSendReqObjLease
)

// ReadStep is what a read needs next. Data (ReadDone) is shared with the
// holder; callers must not modify it. Version is Data's version (ReadDone)
// or the one to present, NoVersion without a copy (ReadSendReqObjLease).
type ReadStep struct {
	Next    ReadNext
	Data    []byte
	Version Version
}

// Read is the client half of one read of Figure 4, the counterpart of
// Renewal: serve the copy iff both the volume lease and the object lease are
// valid, else renew whichever is missing and check again. It does no I/O and
// reads no clock; the caller carries each request it names, under whatever
// lock guards the holder. A read works in passes of at most one volume
// renewal and one object request each, and gives up after four.
type Read struct {
	h                  *Holder
	vid                VolumeID
	oid                ObjectID
	token              uint64 // begin's, for the grant Step installs
	passes             int
	renewed, requested bool // by this pass
}

// Read opens a read of oid in volume vid at mono, a fresh reading of the
// holder's monotonic clock, and names its first step: ReadDone for a hit.
func (h *Holder) Read(vid VolumeID, oid ObjectID, mono time.Duration) (Read, ReadStep) {
	r := Read{h: h, vid: vid, oid: oid, passes: 1}
	st, _ := r.next(mono) // the first pass cannot run out
	return r, st
}

// Renewed checks both leases again at mono, a fresh reading, once the volume
// conversation ReadRenewVolume asked for has ended.
func (r *Read) Renewed(mono time.Duration) (ReadStep, error) {
	return r.next(mono)
}

// Step installs the reply to the REQ_OBJ_LEASE the read named, received at
// a, with its data if it carries any (hasData). A reply an invalidation of
// the object overtook is dropped, without error: the server has already
// overwritten (or is overwriting) the version it covers, and the holder
// acknowledged the drop, so installing it would serve stale data under a
// valid-looking lease. Step then checks both leases again at a.Mono and
// names the next step. It fails on a grant without data for an empty cache.
func (r *Read) Step(g ObjectGrant, hasData bool, a Anchor) (ReadStep, error) {
	if err := r.h.grantObject(r.token, r.vid, g, hasData, a); err != nil {
		return ReadStep{}, err
	}
	return r.next(a.Mono)
}

// next checks both leases at mono and names the step they call for.
func (r *Read) next(mono time.Duration) (ReadStep, error) {
	data, version, volOK, objOK := r.h.Check(r.vid, r.oid, mono)
	if volOK && objOK {
		return ReadStep{Next: ReadDone, Data: data, Version: version}, nil
	}
	if !volOK && r.renewed || volOK && r.requested {
		if r.passes == 4 {
			return ReadStep{}, fmt.Errorf("%w long enough to read %s/%s (leases shorter than renewal latency?)",
				ErrLeasesNotHeld, r.vid, r.oid)
		}
		r.passes++
		r.renewed, r.requested = false, false
	}
	if !volOK {
		r.renewed = true
		return ReadStep{Next: ReadRenewVolume}, nil
	}
	r.requested = true
	version, r.token = r.h.begin(r.oid)
	return ReadStep{Next: ReadSendReqObjLease, Version: version}, nil
}
