package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestEmittedMetricsMatchDeclaration runs every workload untraced and
// one traced layer run (which replays all four) at a tiny count, and
// checks the contract's last line against BENCHMARK.json in both
// directions. Plain tests only: CI's `-bench .` smoke must not pick
// the benchmark up.
func TestEmittedMetricsMatchDeclaration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	setups, probeElems = 1, 1<<14 // sizes only; the names do not depend on them
	decl, err := loadDecl()
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloadNames))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloadNames[i])
		}
	}
	legal := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

	check := func(workload, trace string, decls []metricDecl) {
		t.Helper()
		var out bytes.Buffer
		args := []string{"--workload", workload, "--seed", "7", "--seconds", "0.05", "--trace", trace}
		if err := run(args, &out, io.Discard); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   *bool             `json:"correct"`
			Attempted *int              `json:"attempted"`
			Failed    *int              `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("%v: last line is not the contract object: %v", args, err)
		}
		if res.Correct == nil || res.Attempted == nil || res.Failed == nil {
			t.Fatalf("%v: correct/attempted/failed missing from %s", args, lines[len(lines)-1])
		}
		if !*res.Correct || *res.Attempted < 1 || *res.Failed != 0 {
			t.Errorf("%v: correct=%v attempted=%d failed=%d", args, *res.Correct, *res.Attempted, *res.Failed)
		}
		want := map[string]string{}
		for _, d := range decls {
			want[d.Name] = d.Unit
			if !legal.MatchString(d.Name) {
				t.Errorf("declared metric name %q is not [A-Za-z0-9_.-]+", d.Name)
			}
		}
		for name, m := range res.Metrics {
			if unit, ok := want[name]; !ok {
				t.Errorf("%v: emitted %q, which BENCHMARK.json does not declare", args, name)
			} else if unit != m.Unit {
				t.Errorf("%v: %q emitted in %q, declared in %q", args, name, m.Unit, unit)
			}
		}
		for name := range want {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("%v: declared %q was not emitted", args, name)
			}
		}
	}
	for _, w := range workloadNames {
		check(w, "0", decl.EndToEnd)
	}
	check(serveSmall, "1", decl.PerLayer)
}

// TestCompare pins -compare: it refuses sets that did different work,
// passes a change inside the bound and fails one beyond it.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	set := func(name string, opsPerS float64, evals int64) string {
		data, err := json.Marshal([]*result{{
			Workload: serveSmall, Seed: 1, Seconds: 1, Clients: 2,
			Counters: counters{Evals: evals},
			contract: contract{Attempted: 100, Metrics: map[string]metric{"ops_per_s": {Value: opsPerS, Unit: "1/s"}}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := set("parent.json", 100, 5)
	for _, tc := range []struct {
		name    string
		change  string
		wantErr string
	}{
		{"same work, inside the bound", set("ok.json", 95, 5), ""},
		{"same work, beyond the bound", set("slow.json", 50, 5), "worse than their bound"},
		{"different eval count", set("other.json", 100, 6), "refusing to compare"},
	} {
		var out bytes.Buffer
		err := run([]string{"-compare", parent, tc.change}, &out, io.Discard)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: got error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}
