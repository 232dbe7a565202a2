package cost

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/wire"
)

// Handler serves the accounting dump at /debug/cost as indented JSON.
// Query filters: ?kind=ObjLease (repeatable, case-insensitive) keeps only
// those kinds; ?volume=vol-1 (repeatable) keeps only those volumes and
// drops the connection table (it cannot be attributed per volume);
// ?window=30 narrows the burst summary (not the listed seconds) to the
// trailing 30 seconds. Totals and seconds always cover all traffic. Safe
// with a nil *Accounting (serves the zero dump).
func Handler(a *Accounting) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		d := a.Snapshot()
		q := r.URL.Query()
		if kinds := q["kind"]; len(kinds) > 0 {
			want := make(map[string]bool, len(kinds))
			for _, k := range kinds {
				name, ok := kindByName(k)
				if !ok {
					http.Error(w, fmt.Sprintf("unknown kind %q", k), http.StatusBadRequest)
					return
				}
				want[name] = true
			}
			kept := d.Kinds[:0]
			for _, ks := range d.Kinds {
				if want[ks.Kind] {
					kept = append(kept, ks)
				}
			}
			d.Kinds = kept
		}
		if vols := q["volume"]; len(vols) > 0 {
			want := make(map[string]bool, len(vols))
			for _, v := range vols {
				want[v] = true
			}
			kept := d.Volumes[:0]
			for _, vs := range d.Volumes {
				if want[vs.Volume] {
					kept = append(kept, vs)
				}
			}
			d.Volumes = kept
			d.Conns = nil
		}
		if s := q.Get("window"); s != "" {
			win, err := strconv.Atoi(s)
			if err != nil || win < 1 {
				http.Error(w, "window: want a positive number of seconds", http.StatusBadRequest)
				return
			}
			d.Burst = burst(d.Seconds, d.CapturedAt.Unix(), min(win, Window))
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(d)
	}
}

// kindByName resolves a case-insensitive kind name to its canonical form.
func kindByName(s string) (string, bool) {
	for k := 1; k < wire.NumKinds; k++ {
		name := wire.Kind(k).String()
		if strings.EqualFold(name, s) {
			return name, true
		}
	}
	return "", false
}
