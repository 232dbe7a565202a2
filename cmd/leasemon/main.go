// Command leasemon is the fleet monitor and the stack's one alerting
// point: it scrapes /metrics from a list of lease-stack debug endpoints,
// evaluates a fixed rule table over each, and renders one fleet-wide status
// table; it can also fetch and pretty-print a flight recorder dump from any
// node.
//
// Usage:
//
//	leasemon host:port [host:port ...]          fleet status table
//	leasemon -leases host:port [host:port ...]  fleet lease-state table (/debug/leases)
//	leasemon -diff server:port [client:port...] server↔client lease divergence check
//	leasemon -dumps host:port                   list flight dumps on one node
//	leasemon -dump latest host:port             fetch + pretty-print the newest dump
//	leasemon -dump flight-....json host:port    fetch + pretty-print one dump
//	leasemon -freeze host:port                  force the node to write a dump
//
// The fleet table samples each node's /metrics twice, -rate-window apart,
// and FIRING lists the rules that fire on the pair:
//
//	ack-wait            the window's lease_write_ack_wait_seconds _sum/_count
//	                    delta: a mean wait of at least 500ms over at least 5 writes
//	renewal-storm       lease_reconnects_total rises at least 5/s
//	unreachable-growth  lease_{,proxy_}unreachable_transitions_total rises at
//	                    least 3 per 30s
//	epoch-bump          lease_epoch_bumps_total rises at all
//	inval-backlog       lease_server_pending_invalidations is at least 1000
//
// The first four are rate rules: with -rate-window 0 leasemon samples once
// and skips them. A node that does not export a rule's series never fires
// it. NODE is the node label of the node's series, DUMPS reads
// lease_health_dumps_written_total, MSGS/S and BYTES/S are the window's lease_cost_* deltas, and LEASES and
// EXPIRING read the lease_state_* gauges; a column whose series the node
// does not export shows "-".
//
// -diff scrapes /debug/leases from every endpoint — the first must serve a
// server (or proxy) table, the rest contribute client views — and runs the
// internal/state diff engine: holder mismatches, expiry skew beyond ε
// (-epsilon widens the per-client bound), unreachable clients still
// caching, and overdue invalidation acks. The comparison is exact when the
// fleet is quiescent between scrapes; under traffic, transient divergences
// are expected to converge to zero on a re-run.
//
// Endpoints are the debug addresses the daemons expose via -debug-addr.
// The exit status is 0 when every endpoint is healthy (-diff: no
// divergence), 1 on a usage or scrape failure, and 2 when the fleet is
// reachable but some rule fires (-diff: divergence found) — so leasemon
// drops into cron and CI gates unchanged.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/state"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(out, errw io.Writer, argv []string) int {
	fs := flag.NewFlagSet("leasemon", flag.ContinueOnError)
	fs.SetOutput(errw)
	timeout := fs.Duration("timeout", 3*time.Second, "per-endpoint scrape timeout")
	rateWin := fs.Duration("rate-window", time.Second,
		"gap between the two /metrics samples behind the MSGS/S and BYTES/S columns (0 = skip rate sampling)")
	dump := fs.String("dump", "", "fetch one dump from the endpoint: a flight-*.json name, or 'latest'")
	dumps := fs.Bool("dumps", false, "list the endpoint's flight dump files")
	freeze := fs.Bool("freeze", false, "force the endpoint to freeze its flight recorder to disk")
	raw := fs.Bool("raw", false, "with -dump: emit the raw JSON instead of the pretty view")
	events := fs.Int("events", 20, "with -dump: how many trailing events to print (0 = all)")
	leases := fs.Bool("leases", false, "render the fleet lease-state table from each endpoint's /debug/leases")
	diff := fs.Bool("diff", false, "diff lease state: first endpoint is the server view, the rest contribute client views")
	epsilon := fs.Duration("epsilon", 0, "with -diff: expiry-skew tolerance added on top of each client's own ε")
	window := fs.Duration("window", state.DefaultExpiringWindow, "with -leases: lookahead for the EXPIRING column")
	if err := fs.Parse(argv); err != nil {
		return 1
	}
	eps := fs.Args()
	if len(eps) == 0 {
		fmt.Fprintln(errw, "leasemon: at least one debug endpoint (host:port) required")
		fs.Usage()
		return 1
	}
	cl := &http.Client{Timeout: *timeout}

	var err error
	switch {
	case *dump != "":
		err = fetchDump(out, cl, eps[0], *dump, *raw, *events)
	case *dumps:
		err = listDumps(out, cl, eps[0])
	case *freeze:
		err = freezeDump(out, cl, eps[0])
	case *leases:
		return leaseTable(out, errw, cl, eps, *window)
	case *diff:
		return diffLeases(out, errw, cl, eps, *epsilon)
	default:
		return fleet(out, errw, cl, eps, *rateWin)
	}
	if err != nil {
		fmt.Fprintln(errw, "leasemon:", err)
		return 1
	}
	return 0
}

// row is one endpoint's scraped state in the fleet table.
type row struct {
	endpoint string
	sample
	err error
}

// fleet scrapes every endpoint concurrently and renders the table.
func fleet(out, errw io.Writer, cl *http.Client, eps []string, rateWin time.Duration) int {
	rows := make([]row, len(eps))
	done := make(chan int, len(eps))
	for i, ep := range eps {
		go func(i int, ep string) {
			rows[i] = scrape(cl, ep, rateWin)
			done <- i
		}(i, ep)
	}
	for range eps {
		<-done
	}

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ENDPOINT\tNODE\tSTATUS\tFIRING\tDUMPS\tLEASES\tEXPIRING\tSERIES\tMSGS/S\tBYTES/S")
	exit := 0
	for _, r := range rows {
		if r.err != nil {
			fmt.Fprintf(tw, "%s\t-\tunreachable\t-\t-\t-\t-\t-\t-\t-\t-\n", r.endpoint)
			fmt.Fprintf(errw, "leasemon: %s: %v\n", r.endpoint, r.err)
			exit = 1
			continue
		}
		status, firingCol := "ok", "-"
		if f := firing(r.sample); len(f) > 0 {
			status, firingCol = "firing", strings.Join(f, ",")
			if exit == 0 {
				exit = 2
			}
		}
		// level renders the latest value of a family, "-" when not exported.
		level := func(format string, families ...string) string {
			var sum float64
			found := false
			for _, fam := range families {
				v, ok := sumFamily(r.after, fam)
				sum, found = sum+v, found || ok
			}
			if !found {
				return "-"
			}
			return fmt.Sprintf(format, sum)
		}
		// rate renders a counter family's rise per second over the window.
		rate := func(format, family string) string {
			if _, ok := sumFamily(r.after, family); !ok || r.before == nil {
				return "-"
			}
			return fmt.Sprintf(format, r.rise(family)/r.elapsed.Seconds())
		}
		series := 0
		for name := range r.after {
			if strings.HasPrefix(name, "lease_") {
				series++
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%d\t%s\t%s\n",
			r.endpoint, nodeLabel(r.after), status, firingCol,
			level("%.0f", "lease_health_dumps_written_total"),
			level("%.0f", "lease_state_object_leases", "lease_state_volume_leases"),
			level("%.0f", "lease_state_expiring"), series,
			rate("%.1f", "lease_cost_messages_total"), rate("%.0f", "lease_cost_bytes_total"))
	}
	tw.Flush()
	return exit
}

// sleep waits out the rate window between the two /metrics samples; tests
// replace it to act inside the window.
var sleep = time.Sleep

// scrape samples one endpoint's /metrics, and again after rateWin when
// rateWin > 0, for the rate rules and the rate columns.
func scrape(cl *http.Client, ep string, rateWin time.Duration) row {
	r := row{endpoint: ep}
	body, err := get(cl, ep, "/metrics")
	if err != nil {
		r.err = err
		return r
	}
	r.after = parseProm(body)
	if rateWin <= 0 {
		return r
	}
	start := time.Now()
	sleep(rateWin)
	if body, err = get(cl, ep, "/metrics"); err != nil {
		r.err = err
		return r
	}
	r.before, r.after, r.elapsed = r.after, parseProm(body), time.Since(start)
	return r
}

// nodeLabel is the node="…" label the node's series carry ("-" without one).
func nodeLabel(series map[string]float64) string {
	node := ""
	for name := range series {
		if _, rest, ok := strings.Cut(name, `node="`); ok {
			if v, _, ok := strings.Cut(rest, `"`); ok && (node == "" || v < node) {
				node = v
			}
		}
	}
	if node == "" {
		return "-"
	}
	return node
}

// scrapeLeases pulls one endpoint's /debug/leases dump.
func scrapeLeases(cl *http.Client, ep string) (state.Dump, error) {
	body, err := get(cl, ep, "/debug/leases")
	if err != nil {
		return state.Dump{}, err
	}
	var d state.Dump
	if err := json.Unmarshal(body, &d); err != nil {
		return state.Dump{}, fmt.Errorf("/debug/leases: %w", err)
	}
	return d, nil
}

// leaseTable renders one lease-state row per endpoint from /debug/leases.
func leaseTable(out, errw io.Writer, cl *http.Client, eps []string, window time.Duration) int {
	type lrow struct {
		dump state.Dump
		err  error
	}
	rows := make([]lrow, len(eps))
	done := make(chan struct{}, len(eps))
	for i, ep := range eps {
		go func(i int, ep string) {
			rows[i].dump, rows[i].err = scrapeLeases(cl, ep)
			done <- struct{}{}
		}(i, ep)
	}
	for range eps {
		<-done
	}

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ENDPOINT\tNODE\tROLE\tOBJ\tVOL\tEXPIRING\tUNREACH\tCACHED\tPEERS")
	exit := 0
	for i, r := range rows {
		if r.err != nil {
			fmt.Fprintf(tw, "%s\t-\tunreachable\t-\t-\t-\t-\t-\t-\n", eps[i])
			fmt.Fprintf(errw, "leasemon: %s: %v\n", eps[i], r.err)
			exit = 1
			continue
		}
		d := r.dump
		c := state.Count(d, window)
		// PEERS: connections a server is tracking, or cached upstream views
		// a client pool holds.
		peers := len(d.Clients)
		if d.Server != nil {
			peers = len(d.Server.Connected)
		}
		role := d.Role
		if role == "" {
			role = "-"
		}
		node := d.Node
		if node == "" {
			node = "-"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n",
			eps[i], node, role, c.ObjectLeases, c.VolumeLeases, c.Expiring,
			c.Unreachable, c.UnreachableCached, peers)
	}
	tw.Flush()
	return exit
}

// diffLeases scrapes /debug/leases from every endpoint — the first must
// carry a server table; every dump's client views (including the first's,
// so a proxy or a bench node with clients self-checks) feed the diff — and
// reports divergences. Exit 0 clean, 1 on scrape/usage failure, 2 on
// divergence.
func diffLeases(out, errw io.Writer, cl *http.Client, eps []string, epsilon time.Duration) int {
	dumps := make([]state.Dump, len(eps))
	for i, ep := range eps {
		d, err := scrapeLeases(cl, ep)
		if err != nil {
			fmt.Fprintf(errw, "leasemon: %s: %v\n", ep, err)
			return 1
		}
		dumps[i] = d
	}
	server := dumps[0]
	if server.Server == nil {
		fmt.Fprintf(errw, "leasemon: %s serves no server-side lease table (role %q); -diff needs a leased or leaseproxy endpoint first\n",
			eps[0], server.Role)
		return 1
	}
	rep := state.Diff(server, dumps, state.Options{Epsilon: epsilon})

	fmt.Fprintf(out, "diff against %s (%s): %d client view(s), %d lease(s) checked, ε=%v\n",
		server.Node, eps[0], rep.ClientsChecked, rep.LeasesChecked, rep.Epsilon)
	if rep.Clean() {
		fmt.Fprintln(out, "clean: server and client lease views agree")
		return 0
	}
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "KIND\tCLIENT\tVOLUME\tOBJECT\tDETAIL")
	for _, dv := range rep.Divergences {
		obj := string(dv.Object)
		if obj == "" {
			obj = "-"
		}
		vol := string(dv.Volume)
		if vol == "" {
			vol = "-"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", dv.Kind, dv.Client, vol, obj, dv.Detail)
	}
	tw.Flush()
	fmt.Fprintf(out, "%d divergence(s)\n", len(rep.Divergences))
	return 2
}

// sumFamily sums every series of one metric family (any labels) and reports
// whether there was one.
func sumFamily(series map[string]float64, family string) (float64, bool) {
	var sum float64
	found := false
	for name, v := range series {
		if name == family || strings.HasPrefix(name, family+"{") {
			sum += v
			found = true
		}
	}
	return sum, found
}

// parseProm reads Prometheus text exposition into full-series-name → value.
func parseProm(body []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

func get(cl *http.Client, ep, path string) ([]byte, error) {
	resp, err := cl.Get("http://" + ep + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// listDumps prints one node's dump files.
func listDumps(out io.Writer, cl *http.Client, ep string) error {
	infos, err := dumpList(cl, ep)
	if err != nil {
		return err
	}
	if len(infos) == 0 {
		fmt.Fprintln(out, "no flight dumps")
		return nil
	}
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tBYTES\tMODIFIED")
	for _, in := range infos {
		fmt.Fprintf(tw, "%s\t%d\t%s\n", in.Name, in.Bytes, in.Modified.Format(time.RFC3339))
	}
	return tw.Flush()
}

func dumpList(cl *http.Client, ep string) ([]health.DumpInfo, error) {
	body, err := get(cl, ep, "/debug/flightrecorder?list=1")
	if err != nil {
		return nil, err
	}
	var infos []health.DumpInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		return nil, fmt.Errorf("dump list: %w", err)
	}
	return infos, nil
}

// freezeDump forces the node to write a dump and reports the path.
func freezeDump(out io.Writer, cl *http.Client, ep string) error {
	resp, err := cl.Post("http://"+ep+"/debug/flightrecorder?freeze=1", "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("freeze: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var got struct {
		Path string `json:"path"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("freeze: %w", err)
	}
	fmt.Fprintln(out, "froze flight recorder:", got.Path)
	return nil
}

// fetchDump retrieves one dump ("latest" resolves against the listing) and
// pretty-prints it.
func fetchDump(out io.Writer, cl *http.Client, ep, name string, raw bool, tail int) error {
	if name == "latest" {
		infos, err := dumpList(cl, ep)
		if err != nil {
			return err
		}
		if len(infos) == 0 {
			return fmt.Errorf("%s has no flight dumps", ep)
		}
		latest := infos[0]
		for _, in := range infos[1:] {
			if in.Modified.After(latest.Modified) || (in.Modified.Equal(latest.Modified) && in.Name > latest.Name) {
				latest = in
			}
		}
		name = latest.Name
	}
	body, err := get(cl, ep, "/debug/flightrecorder?file="+name)
	if err != nil {
		return err
	}
	if raw {
		_, err := out.Write(body)
		return err
	}
	d, err := health.ParseDump(strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	printDump(out, name, d, tail)
	return nil
}

// printDump renders the operator view of one dump: the verdict first, then
// the shape of the window, then the trailing event timeline.
func printDump(out io.Writer, name string, d health.Dump, tail int) {
	fmt.Fprintf(out, "flight dump %s\n", name)
	fmt.Fprintf(out, "  node:    %s\n", d.Node)
	fmt.Fprintf(out, "  written: %s (window %ds)\n", d.WrittenAt.Format(time.RFC3339Nano), d.WindowSeconds)
	if d.Trigger != nil {
		fmt.Fprintf(out, "  trigger: %s at %s\n", d.Trigger, d.Trigger.At.Format(time.RFC3339Nano))
		fmt.Fprintf(out, "  context: %v before the trigger\n", d.PreTriggerSpan())
	} else {
		fmt.Fprintln(out, "  trigger: none (manual freeze)")
	}
	fmt.Fprintf(out, "  held:    %d events, %d load seconds\n", len(d.Events), len(d.Seconds))

	// Events by type, busiest first — the 10,000-ft view of the window.
	byType := map[string]int{}
	for _, e := range d.Events {
		byType[e.Type]++
	}
	types := make([]string, 0, len(byType))
	for t := range byType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool {
		if byType[types[i]] != byType[types[j]] {
			return byType[types[i]] > byType[types[j]]
		}
		return types[i] < types[j]
	})
	if len(types) > 0 {
		fmt.Fprintln(out, "\n  events by type:")
		for _, t := range types {
			fmt.Fprintf(out, "    %-24s %d\n", t, byType[t])
		}
	}

	if len(d.Seconds) > 0 {
		// Messages per second are the node's frame counts; writes and grants
		// per second are the dump's own events.
		writes, grants := map[int64]int{}, map[int64]int{}
		for _, e := range d.Events {
			switch e.Type {
			case obs.EvWriteApplied.String():
				writes[e.At.Unix()]++
			case obs.EvObjLeaseGrant.String(), obs.EvVolLeaseGrant.String():
				grants[e.At.Unix()]++
			}
		}
		fmt.Fprintln(out, "\n  per-second load (last 10):")
		secs := d.Seconds
		if len(secs) > 10 {
			secs = secs[len(secs)-10:]
		}
		for _, s := range secs {
			kinds := make([]string, 0, len(s.ByKind))
			for k := range s.ByKind {
				kinds = append(kinds, k)
			}
			sort.Slice(kinds, func(i, j int) bool {
				if s.ByKind[kinds[i]] != s.ByKind[kinds[j]] {
					return s.ByKind[kinds[i]] > s.ByKind[kinds[j]]
				}
				return kinds[i] < kinds[j]
			})
			busiest := ""
			for _, k := range kinds[:min(3, len(kinds))] {
				busiest += fmt.Sprintf(" %s=%d", k, s.ByKind[k])
			}
			fmt.Fprintf(out, "    %s  msgs=%-6d writes=%-5d grants=%-5d%s\n",
				time.Unix(s.Unix, 0).UTC().Format("15:04:05"), s.Msgs, writes[s.Unix], grants[s.Unix], busiest)
		}
	}

	evs := d.Events
	label := "all"
	if tail > 0 && len(evs) > tail {
		evs = evs[len(evs)-tail:]
		label = fmt.Sprintf("last %d", tail)
	}
	if len(evs) > 0 {
		fmt.Fprintf(out, "\n  timeline (%s of %d):\n", label, len(d.Events))
		for _, e := range evs {
			detail := ""
			for _, part := range []struct{ k, v string }{
				{"client", e.Client}, {"object", e.Object}, {"volume", e.Volume},
			} {
				if part.v != "" {
					detail += " " + part.k + "=" + part.v
				}
			}
			if e.DurNS != 0 {
				detail += " dur=" + time.Duration(e.DurNS).String()
			}
			mark := " "
			if d.Trigger != nil && !e.At.Before(d.Trigger.At) {
				mark = "*" // at or after the trigger
			}
			fmt.Fprintf(out, "  %s %s %-20s%s\n", mark, e.At.Format("15:04:05.000"), e.Type, detail)
		}
		if d.Trigger != nil {
			fmt.Fprintln(out, "  (* = at or after the trigger)")
		}
	}
}
