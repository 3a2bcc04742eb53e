package core_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"espresso/internal/chaos"
	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/core"
	"espresso/internal/cost"
	"espresso/internal/gen"
	"espresso/internal/jobspec"
	"espresso/internal/model"
	"espresso/internal/strategy"
)

// update rewrites the selections golden from live selections:
//
//	go test ./internal/core -run TestSelectionsGolden -update
var update = flag.Bool("update", false, "rewrite testdata/selections.golden from live selections")

const selectionsGolden = "testdata/selections.golden"

// TestSelectionsGolden pins what every selection entry point returns, one
// line per case: a change that is meant to leave selection alone (a
// refactor, a faster engine, a deleted knob) must leave this file
// byte-identical. Each Select line carries the strategy's hash and every
// reported count, plus the case's §5.1 Upper Bound; chaos lines pin a
// degraded warm re-selection and the deterministic run reports of the
// checked-in plans. Under -short only a prefix of each family runs, and
// each line computed must still match its golden line.
func TestSelectionsGolden(t *testing.T) {
	t.Parallel()
	short := testing.Short()
	if *update && short {
		t.Fatal("-update writes the full golden; run it without -short")
	}
	var got []string
	add := func(key, format string, args ...any) {
		got = append(got, key+" "+fmt.Sprintf(format, args...))
	}

	seeds, large, zoo := uint64(2040), 64, []*model.Model{model.LSTM(), model.VGG16()}
	if short {
		seeds, large, zoo = 200, 6, zoo[:1]
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		cs := gen.Generate(seed, gen.Config{})
		cm := cost.MustModels(cs.Cluster, cs.Spec)
		s := selectLine(t, add, fmt.Sprintf("gen/%d", seed), cs.Model, cs.Cluster, cm)
		if seed%4 == 0 {
			after, rs, err := chaos.Reselect(cs.Model, cs.Cluster, cs.Spec, s, chaos.ReselectOptions{
				InterScale: 0.3, GPUScale: 2, CPUScale: 1.5,
			})
			if err != nil {
				t.Fatalf("seed %d: Reselect: %v", seed, err)
			}
			add(fmt.Sprintf("reselect/%d", seed), "%s before=%d after=%d adopted=%v",
				strategyHash(t, after), int64(rs.Before), int64(rs.After), rs.Adopted)
		}
	}
	for seed, n := uint64(1), 0; n < large; seed++ {
		cs := gen.Generate(seed, gen.Config{MinTensors: 12, MaxTensors: 24})
		if cs.Cluster.Machines > 1 && cs.Cluster.GPUsPerMachine > 1 {
			selectLine(t, add, fmt.Sprintf("large/%d", seed), cs.Model, cs.Cluster, cost.MustModels(cs.Cluster, cs.Spec))
			n++
		}
	}
	for _, m := range zoo {
		for _, c := range []*cluster.Cluster{cluster.NVLinkTestbed(8), cluster.PCIeTestbed(8)} {
			for _, spec := range []compress.Spec{{ID: compress.RandomK, Ratio: 0.01}, {ID: compress.DGC, Ratio: 0.01}, {ID: compress.EFSignSGD}} {
				selectLine(t, add, fmt.Sprintf("zoo/%s/%s/%s", m.Name, c.Intra, spec.ID), m, c, cost.MustModels(c, spec))
			}
		}
	}
	plans, err := filepath.Glob("../../configs/chaos-*.json")
	if err != nil || len(plans) == 0 {
		t.Fatalf("no chaos plans found: %v", err)
	}
	for _, path := range plans {
		add("chaos/"+filepath.Base(path), "%s", chaosReportHash(t, path))
	}

	if *update {
		if err := os.WriteFile(selectionsGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if !short && len(got) != len(want) {
		t.Errorf("computed %d lines, golden has %d", len(got), len(want))
	}
	bad := 0
	for _, line := range got {
		key, _, _ := strings.Cut(line, " ")
		if w, ok := want[key]; !ok {
			t.Errorf("%s: not in the golden", key)
		} else if w != line {
			t.Errorf("selection drifted from the golden\n got: %s\nwant: %s", line, w)
		} else {
			continue
		}
		if bad++; bad == 10 {
			t.Fatal("more than 10 lines differ")
		}
	}
}

// selectLine runs Select and UpperBound on one case and records them.
func selectLine(t *testing.T, add func(key, format string, args ...any), key string, m *model.Model, c *cluster.Cluster, cm *cost.Models) *strategy.Strategy {
	t.Helper()
	s, rep, err := core.NewSelector(m, c, cm).Select()
	if err != nil {
		t.Fatalf("%s: Select: %v", key, err)
	}
	ub, err := core.UpperBound(m, c, cm)
	if err != nil {
		t.Fatalf("%s: UpperBound: %v", key, err)
	}
	add(key, "%s iter=%d evals=%d ruled=%d offloaded=%d offload_search=%d ub=%d",
		strategyHash(t, s), int64(rep.Iter), rep.Evals, rep.Ruled, rep.Offloaded, rep.OffloadSearch, int64(ub))
	return s
}

func strategyHash(t *testing.T, s *strategy.Strategy) string {
	t.Helper()
	buf, err := strategy.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return hash(buf)
}

func hash(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// chaosReportHash runs a plan the way `espresso-chaos -plan path -iters 8
// -deterministic` does on that command's default job (lstm, NVLink, four
// machines, dgc 0.01) and hashes the report it would write.
func chaosReportHash(t *testing.T, path string) string {
	t.Helper()
	job := jobspec.Job{
		Model:     jobspec.ModelSpec{Preset: "lstm"},
		Cluster:   jobspec.ClusterSpec{Preset: "nvlink", Machines: 4},
		Algorithm: jobspec.AlgorithmSpec{Name: "dgc", Ratio: 0.01},
	}
	r, err := job.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	healthy, _, err := r.Strategy(jobspec.Espresso, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := chaos.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := chaos.NewRunner(r.Model, r.Cluster, r.Spec, healthy, plan)
	if err != nil {
		t.Fatal(err)
	}
	runner.Deterministic = true
	rep, runErr := runner.Run(8)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		return hash(data) + " err=" + runErr.Error()
	}
	return hash(data)
}

// readGolden maps each golden line's key to the line.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(selectionsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	out := make(map[string]string)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		key, _, _ := strings.Cut(sc.Text(), " ")
		out[key] = sc.Text()
	}
	return out
}
