package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke runs every workload for 200 ms untraced and a 2 % traced run,
// with the oracle and every shape guard on, and checks that the metrics the
// runs produce are the ones BENCHMARK.json declares, unit for unit.
func TestSmoke(t *testing.T) {
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(specs))
	}
	for i, s := range specs {
		if d := decl.Workloads[i]; d.Name != s.name || d.Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the benchmark %q (%q)", i, d.Name, d.Why, s.name, s.why)
		}
		opt := runOpts{seconds: 0.2, scale: 0.02, outDir: t.TempDir()}
		ref, err := runUntraced(s, 1, opt)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		tr, err := runTraced(s, 1, opt, ref)
		if err != nil {
			t.Fatalf("%s traced: %v", s.name, err)
		}
		w := &workloadReport{Name: s.name}
		w.addUntraced(ref, true)
		w.addTraced(tr)
		w.finish()
		if !w.Correct {
			var buf bytes.Buffer
			w.print(&buf)
			t.Errorf("%s is not correct:\n%s", s.name, &buf)
		}

		if len(w.EndToEnd) != len(decl.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics, BENCHMARK.json declares %d", s.name, len(w.EndToEnd), len(decl.EndToEnd))
		}
		for _, m := range decl.EndToEnd {
			if got, ok := w.EndToEnd[m.Name]; !ok || got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %+v (present %v), want a positive value in %s", s.name, m.Name, got, ok, m.Unit)
			}
		}
		want := len(decl.PerLayer)
		if s.proxy {
			want += len(proxyOnly)
		}
		if len(w.PerLayer) != want {
			t.Errorf("%s: %d per-layer metrics, want %d", s.name, len(w.PerLayer), want)
		}
		for _, m := range decl.PerLayer {
			if got, ok := w.PerLayer[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer %s = %+v (present %v), want unit %s", s.name, m.Name, got, ok, m.Unit)
			}
			if proxyOnly[m.Name] {
				t.Errorf("BENCHMARK.json declares %s, which only proxy_chain can measure", m.Name)
			}
		}
		for name := range proxyOnly {
			if _, ok := w.PerLayer[name]; ok != s.proxy {
				t.Errorf("%s: %s present = %v", s.name, name, ok)
			}
		}

		var line bytes.Buffer
		if err := w.printResultLine(&line, 1); err != nil {
			t.Fatal(err)
		}
		var res struct {
			Correct   bool
			Attempted uint64
			Metrics   map[string]metric
		}
		if err := json.Unmarshal(line.Bytes(), &res); err != nil || !res.Correct || res.Attempted == 0 || len(res.Metrics) != len(decl.PerLayer) {
			t.Errorf("%s: result line %q: %v", s.name, line.String(), err)
		}
	}
}

// TestCompare pins -compare's verdicts: equal reports pass, a throughput
// drop beyond the bound or an incorrect run does not.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS float64, correct bool) string {
		r := report{Workloads: []*workloadReport{{
			Name: "lease_miss", Correct: correct,
			EndToEnd: map[string]metric{"ops_per_s": {opsPerS, "1/s"}, "read_mean_us": {24, "us"}},
		}}}
		path := dir + "/" + name
		if err := r.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := dir + "/spec.json"
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[
		{"name":"ops_per_s","better":"higher","bound":0.1},
		{"name":"read_mean_us","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := write("a.json", 80000, true)
	for _, c := range []struct {
		name  string
		path  string
		worse bool
	}{
		{"same", write("same.json", 80000, true), false},
		{"faster", write("faster.json", 100000, true), false},
		{"within bound", write("within.json", 73000, true), false},
		{"beyond bound", write("beyond.json", 70000, true), true},
		{"incorrect", write("bad.json", 80000, false), true},
	} {
		var out bytes.Buffer
		worse, err := compareReports(&out, spec, base, c.path)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse {
			t.Errorf("%s: worse = %v, want %v\n%s", c.name, worse, c.worse, &out)
		}
	}
}
