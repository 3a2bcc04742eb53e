// Command bench is the repository's performance benchmark: four seeded
// workloads over the selection service, the selector alone and the
// real-bytes data plane, reduced to the end-to-end metrics (untraced
// run) and per-layer metrics (traced run) that BENCHMARK.json declares.
// See README.md beside this file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchDecl is the part of BENCHMARK.json the program reads: it is the
// one place metric names, units and bounds are written down.
type benchDecl struct {
	root       string // directory BENCHMARK.json was found in
	RunSeconds int    `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// loadDecl reads BENCHMARK.json from the checkout root (the working
// directory, or its parent when run from bench/).
func loadDecl() (*benchDecl, error) {
	var d benchDecl
	var data []byte
	var err error
	for _, d.root = range []string{".", ".."} {
		if data, err = os.ReadFile(filepath.Join(d.root, "BENCHMARK.json")); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contract is a run as the driver reads it: exactly these keys, as the
// last line of standard output.
type contract struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result adds what -compare needs to know about the run.
type result struct {
	contract
	Workload string   `json:"workload,omitempty"`
	Seed     uint64   `json:"seed,omitempty"`
	Seconds  float64  `json:"seconds,omitempty"`
	Clients  int      `json:"clients,omitempty"`
	Procs    int      `json:"gomaxprocs,omitempty"`
	Counters counters `json:"fingerprint"`
}

// declared attaches units to the values and insists the emitted names
// are exactly the declared ones: a metric the program forgot, or one
// BENCHMARK.json does not know, fails the run instead of drifting.
func declared(decls []metricDecl, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(decls))
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("declared metric %q was not measured", d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("measured metric %q is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// runOne is one contract run: one workload, traced or not.
func runOne(decl *benchDecl, name string, seed uint64, seconds float64, traced bool, workdir string, log io.Writer) (*result, error) {
	res := &result{
		Workload: name, Seed: seed, Seconds: seconds,
		Procs: runtime.GOMAXPROCS(0),
	}
	var values map[string]float64
	decls := decl.EndToEnd
	if traced {
		decls = decl.PerLayer
		t, err := runTraced(name, seed, seconds, workdir, filepath.Join(decl.root, "bench", "out"))
		if err != nil {
			return nil, err
		}
		values = t.metrics
		res.Clients, res.Attempted, res.Failed = 1, t.attempted, len(t.errs)
		for _, err := range t.errs {
			fmt.Fprintf(log, "%s: failed: %v\n", name, err)
		}
	} else {
		m, err := runWorkload(name, seed, seconds, workdir)
		if err != nil {
			return nil, err
		}
		for _, err := range m.errs {
			fmt.Fprintf(log, "%s: failed: %v\n", name, err)
		}
		if len(m.lat) == 0 {
			return nil, fmt.Errorf("%s: all %d operations failed", name, m.ops)
		}
		values = m.endToEnd()
		res.Clients, res.Attempted, res.Failed = m.clients, m.ops, len(m.errs)
		res.Counters = m.counters
	}
	res.Correct = res.Failed == 0
	var err error
	res.Metrics, err = declared(decls, values)
	return res, err
}

func (r *result) print(w io.Writer, decls []metricDecl) {
	fmt.Fprintf(w, "%s seed=%d seconds=%g clients=%d gomaxprocs=%d attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Clients, r.Procs, r.Attempted, r.Failed)
	for _, d := range decls {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run (default: all four)")
		seed     = fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 0, "run length; sizes each workload's fixed operation list (default: BENCHMARK.json run_seconds)")
		trace    = fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced layer run, per-layer metrics")
		runs     = fs.Int("runs", 1, "repeat with seeds seed..seed+runs-1, workloads interleaved, and report medians and quartiles")
		out      = fs.String("out", "", "also write every run's full result to this JSON file (the input of -compare)")
		compare  = fs.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	decl, err := loadDecl()
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("usage: bench -compare a.json b.json")
		}
		return compareFiles(decl, fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 {
		*seconds = float64(decl.RunSeconds)
	}
	names := workloadNames
	if *workload != "" {
		if _, ok := builders[*workload]; !ok {
			return fmt.Errorf("unknown workload %q (want one of %v)", *workload, workloadNames)
		}
		names = []string{*workload}
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *runs < 1 {
		return fmt.Errorf("-runs must be at least 1, got %d", *runs)
	}

	// Stores and traces live inside the checkout, on its real filesystem.
	build := filepath.Join(decl.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	workdir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workdir)

	decls := decl.EndToEnd
	if *trace == 1 {
		decls = decl.PerLayer
	}
	var results []*result
	for k := 0; k < *runs; k++ {
		for _, name := range names {
			res, err := runOne(decl, name, *seed+uint64(k), *seconds, *trace == 1, workdir, stderr)
			if err != nil {
				return err
			}
			res.print(stdout, decls)
			results = append(results, res)
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(results, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	last := results[len(results)-1]
	if *runs > 1 {
		last = summarize(decls, results, stdout)
	}
	line, err := json.Marshal(last.contract)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		os.Exit(1)
	}
}
