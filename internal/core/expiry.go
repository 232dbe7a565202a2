package core

import "time"

// This file keeps a volume's lease records countable without a walk: every
// grant and every object-lease drop goes through the helpers below, which
// keep the count of object leases, the per-client index a discard walks,
// and the expiry heap Stats and Sweep drain. The heap is written out rather
// than built on container/heap, whose interface would allocate per grant.

// expiry is one entry of a volume's expiry heap: the instant one lease
// record expires, its client, its object (nil for the client's volume
// lease), and its number, which the record it was pushed for carries. A
// record set to another expiry or dropped since leaves its entry behind,
// stale: the record is gone or carries another number.
type expiry struct {
	at     time.Time
	client ClientID
	obj    *object
	entry  uint64
}

// expirySlack is the constant in the heap's bound: compact keeps it within
// twice the records it indexes plus this many stale entries.
const expirySlack = 64

// record returns the lease an entry indexes, if the entry is not stale.
func (v *volume) record(e expiry) (lease, bool) {
	at := v.at
	if e.obj != nil {
		at = e.obj.at
	}
	l, ok := at[e.client]
	return l, ok && l.entry == e.entry
}

// set installs l as client's record in at (v.at, or obj's at map) and
// indexes it. A record set again to the expiry it already had keeps its
// entry: a second entry at the same instant would look as live as the
// first, and compact could remove neither.
func (v *volume) set(at map[ClientID]lease, client ClientID, obj *object, l lease) {
	if old, had := at[client]; had && old.expire.Equal(l.expire) {
		l.entry = old.entry
		at[client] = l
		return
	}
	v.entries++
	l.entry = v.entries
	at[client] = l
	v.pushExpiry(expiry{at: l.expire, client: client, obj: obj, entry: l.entry})
}

// setVolLease installs client's volume lease.
func (v *volume) setVolLease(client ClientID, l lease) {
	v.set(v.at, client, nil, l)
}

// setObjLease installs client's lease on o.
func (v *volume) setObjLease(o *object, client ClientID, l lease) {
	if _, had := o.at[client]; !had {
		v.objLeases++
		if v.held != nil {
			if v.held[client] == nil {
				v.held[client] = make(map[*object]struct{})
			}
			v.held[client][o] = struct{}{}
		}
	}
	v.set(o.at, client, o, l)
}

// dropObjLease forgets client's lease on o, if it holds one.
func (v *volume) dropObjLease(o *object, client ClientID) {
	if _, had := o.at[client]; !had {
		return
	}
	delete(o.at, client)
	v.objLeases--
	if delete(v.held[client], o); len(v.held[client]) == 0 {
		delete(v.held, client)
	}
	v.compact()
}

// drain removes every record expired at now, logging volume-lease expiries
// for the inactivity clock and counting the records for the next Sweep.
// Afterwards every record left in the maps is valid at now.
func (v *volume) drain(now time.Time) {
	for len(v.expiries) > 0 && !v.expiries[0].at.After(now) {
		e := v.popExpiry()
		l, ok := v.record(e)
		if !ok {
			continue // set again or dropped since this entry was made
		}
		if e.obj == nil {
			delete(v.at, e.client)
			v.volExpiredAt[e.client] = l.expire
		} else {
			v.dropObjLease(e.obj, e.client)
		}
		v.expired++
	}
}

// compact drops the stale entries once they outnumber the records: a record
// renewed or dropped long before its old expiry (a write's invalidation, a
// repeated grant) would otherwise leave its entry behind until that expiry.
func (v *volume) compact() {
	if len(v.expiries) <= 2*(len(v.at)+v.objLeases)+expirySlack {
		return
	}
	live := v.expiries[:0]
	for _, e := range v.expiries {
		if _, ok := v.record(e); ok {
			live = append(live, e)
		}
	}
	clear(v.expiries[len(live):])
	v.expiries = live
	for i := len(live)/2 - 1; i >= 0; i-- {
		v.siftDown(i)
	}
}

// pushExpiry adds e to the heap and compacts it if it has outgrown its bound.
func (v *volume) pushExpiry(e expiry) {
	h := append(v.expiries, e)
	for i := len(h) - 1; i > 0 && h[i].at.Before(h[(i-1)/2].at); i = (i - 1) / 2 {
		h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
	}
	v.expiries = h
	v.compact()
}

// popExpiry removes and returns the earliest entry.
func (v *volume) popExpiry() expiry {
	h, n := v.expiries, len(v.expiries)-1
	top := h[0]
	h[0], h[n] = h[n], expiry{}
	v.expiries = h[:n]
	v.siftDown(0)
	return top
}

// siftDown moves entry i down to its place in the heap.
func (v *volume) siftDown(i int) {
	h := v.expiries
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r].at.Before(h[m].at) {
			m = r
		}
		if !h[m].at.Before(h[i].at) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
