package state

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
)

// Filter restricts a Dump to a subset of its state. Zero value keeps
// everything.
type Filter struct {
	// Volume keeps only the named volumes (and client leases on them).
	Volume []core.VolumeID
	// Client keeps only lease records held by the named clients.
	Client []core.ClientID
	// Expiring keeps only leases expiring within this window after the
	// dump's TakenAt (0 = no expiry filter).
	Expiring time.Duration
}

func (f Filter) empty() bool {
	return len(f.Volume) == 0 && len(f.Client) == 0 && f.Expiring == 0
}

// Apply returns a filtered copy of the dump. The filter is evaluated
// against the dump's own TakenAt timestamps — no clock is read — so it
// works identically on live and simulated-clock dumps.
func (f Filter) Apply(d Dump) Dump {
	if f.empty() {
		return d
	}
	vols := toSet(f.Volume)
	clients := toSet(f.Client)

	if d.Server != nil {
		s := *d.Server
		edge := time.Time{}
		if f.Expiring > 0 {
			edge = s.TakenAt.Add(f.Expiring)
		}
		keepLease := func(l core.LeaseSnapshot) bool {
			if clients != nil && !clients[string(l.Client)] {
				return false
			}
			return edge.IsZero() || l.Expire.Before(edge)
		}
		out := make([]core.VolumeSnapshot, 0, len(s.Volumes))
		for _, vs := range s.Volumes {
			if vols != nil && !vols[string(vs.Volume)] {
				continue
			}
			kept := vs
			kept.VolumeLeases = filterLeases(vs.VolumeLeases, keepLease)
			kept.Objects = make([]core.ObjectSnapshot, 0, len(vs.Objects))
			for _, o := range vs.Objects {
				o.Holders = filterLeases(o.Holders, keepLease)
				// Under a lease-level filter, objects with no matching
				// holders are noise; keep them only in the unfiltered view.
				if len(o.Holders) > 0 || (clients == nil && f.Expiring == 0) {
					kept.Objects = append(kept.Objects, o)
				}
			}
			if clients != nil {
				kept.Unreachable = filterIDs(vs.Unreachable, clients)
				kept.Inactive = nil
				for _, ia := range vs.Inactive {
					if clients[string(ia.Client)] {
						kept.Inactive = append(kept.Inactive, ia)
					}
				}
				kept.PendingAcks = nil
				for _, pa := range vs.PendingAcks {
					if clients[string(pa.Client)] {
						kept.PendingAcks = append(kept.PendingAcks, pa)
					}
				}
			}
			out = append(out, kept)
		}
		s.Volumes = out
		d.Server = &s
	}

	if len(d.Clients) > 0 {
		out := make([]ClientSnapshot, 0, len(d.Clients))
		for _, cs := range d.Clients {
			if clients != nil && !clients[string(cs.Client)] {
				continue
			}
			edge := time.Time{}
			if f.Expiring > 0 {
				edge = cs.TakenAt.Add(f.Expiring)
			}
			if vols != nil || !edge.IsZero() {
				kv := make([]core.ClientVolumeLease, 0, len(cs.Volumes))
				for _, vl := range cs.Volumes {
					if vols != nil && !vols[string(vl.Volume)] {
						continue
					}
					if !edge.IsZero() && !vl.Expire.Before(edge) {
						continue
					}
					kv = append(kv, vl)
				}
				cs.Volumes = kv
				ko := make([]core.ClientObjectLease, 0, len(cs.Objects))
				for _, ol := range cs.Objects {
					if vols != nil && !vols[string(ol.Volume)] {
						continue
					}
					if !edge.IsZero() && !ol.Expire.Before(edge) {
						continue
					}
					ko = append(ko, ol)
				}
				cs.Objects = ko
			}
			out = append(out, cs)
		}
		d.Clients = out
	}
	return d
}

// Handler serves the source's dump at /debug/leases as indented JSON.
// Query filters: ?volume= and ?client= (both repeatable) restrict to the
// named volumes/clients; ?expiring=30s keeps only leases expiring within
// that window after the snapshot's TakenAt. Safe with a nil *Source
// (serves the empty dump).
func Handler(src *Source) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		var f Filter
		for _, v := range q["volume"] {
			f.Volume = append(f.Volume, core.VolumeID(v))
		}
		for _, c := range q["client"] {
			f.Client = append(f.Client, core.ClientID(c))
		}
		if s := q.Get("expiring"); s != "" {
			win, err := time.ParseDuration(s)
			if err != nil || win <= 0 {
				http.Error(w, fmt.Sprintf("bad expiring window %q (want a positive duration like 30s)", s), http.StatusBadRequest)
				return
			}
			f.Expiring = win
		}
		d := f.Apply(src.Snapshot())
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(d)
	}
}

func toSet[T ~string](ids []T) map[string]bool {
	if len(ids) == 0 {
		return nil
	}
	m := make(map[string]bool, len(ids))
	for _, id := range ids {
		m[string(id)] = true
	}
	return m
}

func filterLeases(ls []core.LeaseSnapshot, keep func(core.LeaseSnapshot) bool) []core.LeaseSnapshot {
	out := make([]core.LeaseSnapshot, 0, len(ls))
	for _, l := range ls {
		if keep(l) {
			out = append(out, l)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func filterIDs(ids []core.ClientID, want map[string]bool) []core.ClientID {
	out := make([]core.ClientID, 0, len(ids))
	for _, id := range ids {
		if want[string(id)] {
			out = append(out, id)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
