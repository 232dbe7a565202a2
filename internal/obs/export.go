package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/clock"
)

// summaryQuantiles are the quantile labels exported for every histogram.
var summaryQuantiles = []float64{0.5, 0.9, 0.95, 0.99}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples, latency
// histograms as summaries in seconds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	lastFamily := ""
	for _, s := range r.snapshot() {
		family, labels := splitName(s.name)
		if family != lastFamily {
			kind := "gauge"
			switch s.kind {
			case kindCounter:
				kind = "counter"
			case kindSummary:
				kind = "summary"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, kind); err != nil {
				return err
			}
			lastFamily = family
		}
		if s.kind == kindSummary {
			if err := writeSummary(w, family, labels, s); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", s.name, formatFloat(s.val)); err != nil {
			return err
		}
	}
	return nil
}

// writeSummary renders one histogram as a Prometheus summary.
func writeSummary(w io.Writer, family, labels string, s series) error {
	count := s.hist.Count()
	sum := s.hist.Sum().Seconds()
	for _, q := range summaryQuantiles {
		ql := fmt.Sprintf("quantile=%q", strconv.FormatFloat(q, 'g', -1, 64))
		all := ql
		if labels != "" {
			all = labels + "," + ql
		}
		v := s.hist.Quantile(q).Seconds()
		if _, err := fmt.Fprintf(w, "%s{%s} %s\n", family, all, formatFloat(v)); err != nil {
			return err
		}
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", family, suffix, formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", family, suffix, count)
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteJSON renders the registry as a flat expvar-style JSON object keyed
// by series name. Counters and gauges are numbers; histograms are objects
// with count and second-valued quantile fields.
func (r *Registry) WriteJSON(w io.Writer) error {
	vars := make(map[string]any)
	for _, s := range r.snapshot() {
		if s.kind == kindSummary {
			vars[s.name] = map[string]any{
				"count":       s.hist.Count(),
				"sum_seconds": s.hist.Sum().Seconds(),
				"mean":        s.hist.Mean().Seconds(),
				"p50":         s.hist.Quantile(0.5).Seconds(),
				"p90":         s.hist.Quantile(0.9).Seconds(),
				"p95":         s.hist.Quantile(0.95).Seconds(),
				"p99":         s.hist.Quantile(0.99).Seconds(),
				"max":         s.hist.Max().Seconds(),
			}
			continue
		}
		vars[s.name] = s.val
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(vars)
}

// metricsHandler serves the Prometheus text format.
func metricsHandler(r *Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	}
}

// varsHandler serves the expvar-style JSON format.
func varsHandler(r *Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteJSON(w)
	}
}

// EventJSON is the JSON form of an Event — string-typed, zero fields omitted
// — as served by /debug/events and embedded in flight-recorder dumps.
type EventJSON struct {
	Type    string     `json:"type"`
	At      time.Time  `json:"at"`
	Node    string     `json:"node,omitempty"`
	Client  string     `json:"client,omitempty"`
	Object  string     `json:"object,omitempty"`
	Volume  string     `json:"volume,omitempty"`
	Epoch   int64      `json:"epoch,omitempty"`
	N       int        `json:"n,omitempty"`
	DurNS   int64      `json:"dur_ns,omitempty"`
	Version int64      `json:"version,omitempty"`
	Expire  *time.Time `json:"expire,omitempty"`
}

// JSON renders the event in its JSON form.
func (e Event) JSON() EventJSON {
	je := EventJSON{
		Type: e.Type.String(), At: e.At, Node: e.Node,
		Client: string(e.Client), Object: string(e.Object),
		Volume: string(e.Volume), Epoch: int64(e.Epoch),
		N: e.N, DurNS: int64(e.Dur), Version: int64(e.Version),
	}
	if !e.Expire.IsZero() {
		expire := e.Expire
		je.Expire = &expire
	}
	return je
}

// eventsHandler dumps a ring sink's retained events as JSON lines. Two
// query parameters narrow long traces:
//
//	?type=vol-lease-grant   — only events of that type (repeatable)
//	?since=5s | ?since=RFC3339 — only events at or after the cutoff
//	  (a duration is taken relative to now on the injected clock)
//
// clk supplies "now" for relative ?since= windows, so a stack running on a
// simulated clock filters against the timeline its events were stamped on.
func eventsHandler(ring *RingSink, clk clock.Clock) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		types := make(map[string]bool)
		for _, t := range q["type"] {
			types[t] = true
		}
		var since time.Time
		if s := q.Get("since"); s != "" {
			if d, err := time.ParseDuration(s); err == nil {
				since = clk.Now().Add(-d)
			} else if at, err := time.Parse(time.RFC3339Nano, s); err == nil {
				since = at
			} else {
				http.Error(w, "since: want a duration (5s) or RFC3339 time", http.StatusBadRequest)
				return
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		for _, e := range ring.Snapshot() {
			if len(types) > 0 && !types[e.Type.String()] {
				continue
			}
			if !since.IsZero() && e.At.Before(since) {
				continue
			}
			if err := enc.Encode(e.JSON()); err != nil {
				return
			}
		}
	}
}
