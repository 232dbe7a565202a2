package main

import "time"

// sample is the change in one node's /metrics across the rate window: before
// is nil when there is no window (-rate-window 0), and the rate rules are
// skipped.
type sample struct {
	before, after map[string]float64
	elapsed       time.Duration
}

// rise is how much a counter family grew across the window; a counter that
// shrank means the node restarted, which is no rise.
func (s sample) rise(family string) float64 {
	b, _ := sumFamily(s.before, family)
	a, _ := sumFamily(s.after, family)
	return max(0, a-b)
}

// rule is one alert over a node's /metrics. A rate rule reads the window's
// counter deltas; a level rule reads the latest sample.
type rule struct {
	name  string
	rate  bool
	fires func(s sample) bool
}

// rules is the fleet table's one fixed rule table. Each is a threshold over a
// series the daemons export; a node without the series never fires the rule.
var rules = []rule{
	// The paper's min(t, t_v) write wait gone bad: unreachable clients
	// stalling writes.
	{"ack-wait", true, func(s sample) bool {
		n := s.rise("lease_write_ack_wait_seconds_count")
		return n >= 5 && s.rise("lease_write_ack_wait_seconds_sum")/n >= 0.5
	}},
	// Clients renewing everything at once (MUST_RENEW_ALL), as after a
	// server restart.
	{"renewal-storm", true, func(s sample) bool {
		return s.rise("lease_reconnects_total")/s.elapsed.Seconds() >= 5
	}},
	// Writes waiting out clients that never acknowledged.
	{"unreachable-growth", true, func(s sample) bool {
		n := s.rise("lease_unreachable_transitions_total") + s.rise("lease_proxy_unreachable_transitions_total")
		return n/s.elapsed.Seconds()*30 >= 3
	}},
	// A volume's epoch moved: the server recovered from a crash.
	{"epoch-bump", true, func(s sample) bool {
		return s.rise("lease_epoch_bumps_total") > 0
	}},
	{"inval-backlog", false, func(s sample) bool {
		v, _ := sumFamily(s.after, "lease_server_pending_invalidations")
		return v >= 1000
	}},
}

// firing lists the rules that fire on s, in table order.
func firing(s sample) []string {
	var out []string
	for _, r := range rules {
		if (!r.rate || s.before != nil) && r.fires(s) {
			out = append(out, r.name)
		}
	}
	return out
}
