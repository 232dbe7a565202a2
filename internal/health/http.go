package health

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// DumpInfo is one on-disk dump file in the /debug/flightrecorder listing.
type DumpInfo struct {
	Name     string    `json:"name"`
	Bytes    int64     `json:"bytes"`
	Modified time.Time `json:"modified"`
}

// FlightHandler serves the flight recorder — the /debug/flightrecorder
// endpoint:
//
//	GET /debug/flightrecorder          — live ring snapshot as a Dump (no file written)
//	GET /debug/flightrecorder?list=1   — JSON list of written dump files
//	GET /debug/flightrecorder?file=F   — one written dump file, verbatim
//	POST /debug/flightrecorder?freeze=1 — force a dump to disk, return its path
func FlightHandler(d *Dumper) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		switch {
		case q.Get("freeze") != "":
			if r.Method != http.MethodPost {
				http.Error(w, "freeze requires POST", http.StatusMethodNotAllowed)
				return
			}
			path, err := d.ForceDump("frozen via /debug/flightrecorder")
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			_ = json.NewEncoder(w).Encode(map[string]string{"path": path})
		case q.Get("list") != "":
			infos, err := listDumps(d)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(infos)
		case q.Get("file") != "":
			serveDumpFile(d, w, q.Get("file"))
		default:
			if d == nil || d.opts.Flight == nil {
				http.Error(w, "no flight recorder attached", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(d.opts.Flight.Snapshot(d.opts.Clock.Now(), nil))
		}
	}
}

// listDumps enumerates flight-*.json files in the dump directory.
func listDumps(d *Dumper) ([]DumpInfo, error) {
	infos := []DumpInfo{}
	if d == nil || d.opts.DumpDir == "" {
		return infos, nil
	}
	entries, err := os.ReadDir(d.opts.DumpDir)
	if os.IsNotExist(err) {
		return infos, nil
	}
	if err != nil {
		return nil, err
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasPrefix(name, "flight-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		fi, err := ent.Info()
		if err != nil {
			continue
		}
		infos = append(infos, DumpInfo{Name: name, Bytes: fi.Size(), Modified: fi.ModTime()})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos, nil
}

// serveDumpFile streams one written dump, refusing paths that escape the
// dump directory.
func serveDumpFile(d *Dumper, w http.ResponseWriter, name string) {
	if d == nil || d.opts.DumpDir == "" {
		http.Error(w, "no dump directory configured", http.StatusNotFound)
		return
	}
	if name != filepath.Base(name) || !strings.HasPrefix(name, "flight-") {
		http.Error(w, "file: want a flight-*.json dump name", http.StatusBadRequest)
		return
	}
	data, err := os.ReadFile(filepath.Join(d.opts.DumpDir, name))
	if os.IsNotExist(err) {
		http.Error(w, "no such dump", http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write(data)
}
