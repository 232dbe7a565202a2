package server

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// srvMetrics holds the server's pre-resolved registry metrics so hot paths
// pay one pointer nil-check and one atomic op, never a map lookup. nil when
// the server runs without a metrics registry.
type srvMetrics struct {
	objGrants  *obs.Counter
	volGrants  *obs.Counter
	invalSent  *obs.Counter
	invalAcked *obs.Counter
	writes     *obs.Counter
	reconnects *obs.Counter
	unreached  *obs.Counter
	expired    *obs.Counter
	epochBumps *obs.Counter
	conns      *obs.Gauge
	ackWait    *metrics.Histogram
}

// role selects which of METRICS.md's two catalogues a Server exports under:
// the same machine is listed as lease_server_* / {server="…"} when it owns
// its objects and as lease_proxy_* / {proxy="…"} when it caches an
// upstream's. The proxy catalogue is the shorter one; a metric it does not
// list is still counted, just not exported.
type role int

const (
	roleServer role = iota
	roleProxy
)

// initObs resolves counters and registers scrape-time gauges for the live
// consistency-table state under the role's series names (server name first,
// proxy name second in every pair below). Called once from build, before
// any connection is admitted.
func (s *Server) initObs(r role) {
	reg := s.cfg.Obs.Reg()
	if reg == nil {
		return
	}
	label := [...]string{"server", "proxy"}[r]
	name := func(server, proxy string) string {
		base := [...]string{server, proxy}[r]
		if base == "" {
			return ""
		}
		return fmt.Sprintf("%s{%s=%q}", base, label, s.cfg.Name)
	}
	counter := func(server, proxy string) *obs.Counter {
		if n := name(server, proxy); n != "" {
			return reg.Counter(n)
		}
		return new(obs.Counter)
	}
	s.om = &srvMetrics{
		objGrants:  counter("lease_obj_grants_total", ""),
		volGrants:  counter("lease_vol_grants_total", ""),
		invalSent:  counter("lease_invalidations_sent_total", "lease_proxy_invalidations_sent_total"),
		invalAcked: counter("lease_invalidation_acks_total", ""),
		writes:     counter("lease_server_writes_total", "lease_proxy_invalidation_rounds_total"),
		reconnects: counter("lease_reconnects_total", ""),
		unreached:  counter("lease_unreachable_transitions_total", "lease_proxy_unreachable_transitions_total"),
		expired:    counter("lease_swept_leases_total", ""),
		epochBumps: counter("lease_epoch_bumps_total", ""),
		conns:      reg.Gauge(name("lease_server_connections", "lease_proxy_connections")),
		ackWait:    new(metrics.Histogram),
	}
	if n := name("lease_write_ack_wait_seconds", ""); n != "" {
		reg.RegisterHistogram(n, s.om.ackWait)
	}
	// Live table state, sampled at scrape time. One Stats() snapshot per
	// gauge keeps the callbacks independent; the table lock makes each
	// snapshot consistent.
	stat := func(n string, f func(core.Stats) float64) {
		if n != "" {
			reg.GaugeFunc(n, func() float64 { return f(s.Stats()) })
		}
	}
	stat(name("lease_server_object_leases", "lease_proxy_object_leases"),
		func(st core.Stats) float64 { return float64(st.ObjectLeases) })
	stat(name("lease_server_volume_leases", "lease_proxy_volume_leases"),
		func(st core.Stats) float64 { return float64(st.VolumeLeases) })
	stat(name("lease_server_pending_invalidations", ""),
		func(st core.Stats) float64 { return float64(st.PendingInvalidation) })
	stat(name("lease_server_inactive_clients", ""),
		func(st core.Stats) float64 { return float64(st.InactiveClients) })
	stat(name("lease_server_unreachable_clients", "lease_proxy_unreachable_clients"),
		func(st core.Stats) float64 { return float64(st.UnreachableClients) })
	stat(name("lease_server_state_bytes", "lease_proxy_state_bytes"),
		func(st core.Stats) float64 { return float64(st.StateBytes) })
}

// registerVolumeObs exposes one volume's lease and pending-queue depths.
// Called from AddVolume after the volume exists.
func (s *Server) registerVolumeObs(vid core.VolumeID) {
	reg := s.cfg.Obs.Reg()
	if reg == nil {
		return
	}
	labels := fmt.Sprintf("{server=%q,volume=%q}", s.cfg.Name, string(vid))
	vstat := func(f func(core.Stats) float64) func() float64 {
		return func() float64 {
			st, err := s.VolumeStats(vid)
			if err != nil {
				return 0
			}
			return f(st)
		}
	}
	reg.GaugeFunc("lease_volume_object_leases"+labels,
		vstat(func(st core.Stats) float64 { return float64(st.ObjectLeases) }))
	reg.GaugeFunc("lease_volume_volume_leases"+labels,
		vstat(func(st core.Stats) float64 { return float64(st.VolumeLeases) }))
	reg.GaugeFunc("lease_volume_pending_invalidations"+labels,
		vstat(func(st core.Stats) float64 { return float64(st.PendingInvalidation) }))
	reg.GaugeFunc("lease_volume_unreachable_clients"+labels,
		vstat(func(st core.Stats) float64 { return float64(st.UnreachableClients) }))
}

// emit sends a protocol event when tracing is live. Callers leave Node and
// At zero; they are stamped here, after the enabled check, so the disabled
// path never reads the clock. The event argument itself is a stack value —
// the disabled cost is a struct copy and one nil check (see
// obs.BenchmarkEmitDisabled).
func (s *Server) emit(e obs.Event) {
	if !s.cfg.Obs.Tracing() {
		return
	}
	e.Node = s.cfg.Name
	if e.At.IsZero() {
		e.At = s.cfg.Clock.Now()
	}
	s.cfg.Obs.Emit(e)
}
