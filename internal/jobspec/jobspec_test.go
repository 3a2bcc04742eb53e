package jobspec_test

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"espresso"
	"espresso/internal/baselines"
	"espresso/internal/cluster"
	"espresso/internal/cost"
	"espresso/internal/jobspec"
)

// simFlags are cmd/espresso-sim's defaults: the CLI whose private -job
// loader used to drop custom models.
func simFlags() *jobspec.Flags {
	return &jobspec.Flags{Model: "lstm", Cluster: "nvlink", Machines: 2, GPUs: 2, Algo: "dgc", Ratio: 0.01,
		JobFlag: true, ParallelFlag: true, Parallel: 1, ExplainFlag: true}
}

// cli resolves a command line the way every cmd/* does.
func cli(f *jobspec.Flags, args ...string) (*jobspec.Resolved, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f.Register(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	job, err := f.Job()
	if err != nil {
		return nil, err
	}
	return job.Resolve()
}

// TestJobFileMeansTheSameEverywhere walks every job file under configs/
// and checks the CLI path (the binder under espresso-sim's defaults plus
// -job) against the API path (the file unmarshalled into espresso.Job):
// same model, tensors, cluster and algorithm. Fields the file leaves
// unset take the flag defaults on the CLI path, so those are compared
// only where the file names them.
func TestJobFileMeansTheSameEverywhere(t *testing.T) {
	files, err := filepath.Glob("../../configs/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no configs found: %v", err)
	}
	jobs := 0
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(data, &keys); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if _, isJob := keys["model"]; !isJob {
			continue // a chaos plan
		}
		jobs++
		t.Run(filepath.Base(path), func(t *testing.T) {
			var job espresso.Job
			if err := json.Unmarshal(data, &job); err != nil {
				t.Fatal(err)
			}
			api, err := job.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			got, err := cli(simFlags(), "-job", path)
			if err != nil {
				t.Fatal(err)
			}
			if got.Model.Name != api.Model.Name || got.Model.NumTensors() != api.Model.NumTensors() ||
				got.Model.BatchUnit != api.Model.BatchUnit {
				t.Errorf("model: CLI %s (%d tensors, %s), API %s (%d tensors, %s)",
					got.Model.Name, got.Model.NumTensors(), got.Model.BatchUnit,
					api.Model.Name, api.Model.NumTensors(), api.Model.BatchUnit)
			}
			if got.Cluster.Machines != api.Cluster.Machines || got.Cluster.Intra != api.Cluster.Intra ||
				got.Cluster.IntraBandwidth != api.Cluster.IntraBandwidth ||
				got.Cluster.InterBandwidth != api.Cluster.InterBandwidth {
				t.Errorf("cluster: CLI %v, API %v", got.Cluster, api.Cluster)
			}
			wantGPUs := 2 // espresso-sim's default
			if job.Cluster.GPUsPerMachine != 0 {
				wantGPUs = api.Cluster.GPUsPerMachine
			}
			if got.Cluster.GPUsPerMachine != wantGPUs {
				t.Errorf("GPUs per machine: CLI %d, want %d", got.Cluster.GPUsPerMachine, wantGPUs)
			}
			if got.Spec.ID != api.Spec.ID || (job.Algorithm.Ratio != 0 && got.Spec.Ratio != api.Spec.Ratio) {
				t.Errorf("algorithm: CLI %v, API %v", got.Spec, api.Spec)
			}
		})
	}
	if jobs < 3 {
		t.Fatalf("found %d job files under configs/, want at least 3", jobs)
	}
}

// TestCustomModelJob pins the file espresso-sim used to misread as the
// default lstm preset: 3 tensors, samples/s, on the 4x8 PCIe cluster the
// file describes — through the binder and through espresso.Select.
func TestCustomModelJob(t *testing.T) {
	const path = "../../configs/custom_model.json"
	r, err := cli(simFlags(), "-job", path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Model.Name != "mlp-demo" || r.Model.NumTensors() != 3 || r.Model.BatchUnit != "samples" {
		t.Errorf("model = %s, %d tensors, unit %s; want mlp-demo, 3, samples",
			r.Model.Name, r.Model.NumTensors(), r.Model.BatchUnit)
	}
	if c := r.Cluster; c.Machines != 4 || c.GPUsPerMachine != 8 || c.Intra != cluster.PCIe {
		t.Errorf("cluster = %v, want 4 x 8 PCIe", c)
	}
	s, rep, err := espresso.Select(r.Job)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Decisions) != 3 || rep.Unit != "samples/s" {
		t.Errorf("Select: %d decisions, unit %s; want 3, samples/s", len(s.Decisions), rep.Unit)
	}
}

// TestFlagPrecedence pins the one rule: flag default < job file < flag
// passed explicitly, with 0 GPUs meaning the preset default and
// -parallel 0 one search worker per CPU.
func TestFlagPrecedence(t *testing.T) {
	const bert = "../../configs/bert_nvlink.json"
	search := filepath.Join(t.TempDir(), "search.json")
	if err := os.WriteFile(search, []byte(`{"model":{"preset":"vgg16"},"parallelism":3,"explain":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name          string
		args          []string
		model         string
		machines, gpu int
		par           int
		explain       bool
	}{
		{"defaults", nil, "lstm", 2, 2, 1, false},
		{"file over defaults", []string{"-job", bert}, "bert-base", 8, 2, 1, false},
		{"explicit over file", []string{"-job", bert, "-machines", "2"}, "bert-base", 2, 2, 1, false},
		{"explicit equal to default still wins", []string{"-job", bert, "-model", "lstm"}, "lstm", 8, 2, 1, false},
		{"explicit model over custom tensors", []string{"-job", "../../configs/custom_model.json", "-model", "vgg16"}, "vgg16", 4, 8, 1, false},
		{"gpus 0 is the preset default", []string{"-gpus", "0"}, "lstm", 2, 8, 1, false},
		{"gpus 0 over file", []string{"-job", "../../configs/custom_model.json", "-gpus", "0", "-cluster", "nvlink"}, "mlp-demo", 4, 8, 1, false},
		{"search settings from the file", []string{"-job", search}, "vgg16", 2, 2, 3, true},
		{"explicit search flags over file", []string{"-job", search, "-parallel", "2", "-explain=false"}, "vgg16", 2, 2, 2, false},
		{"parallel 0 is one per CPU", []string{"-parallel", "0", "-explain"}, "lstm", 2, 2, runtime.GOMAXPROCS(0), true},
	}
	for _, tc := range cases {
		r, err := cli(simFlags(), tc.args...)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if r.Model.Name != tc.model || r.Cluster.Machines != tc.machines || r.Cluster.GPUsPerMachine != tc.gpu {
			t.Errorf("%s: got %s on %d x %d, want %s on %d x %d", tc.name,
				r.Model.Name, r.Cluster.Machines, r.Cluster.GPUsPerMachine, tc.model, tc.machines, tc.gpu)
		}
		if r.Job.Parallelism != tc.par || r.Job.Explain != tc.explain {
			t.Errorf("%s: got parallelism %d, explain %v; want %d, %v", tc.name,
				r.Job.Parallelism, r.Job.Explain, tc.par, tc.explain)
		}
	}
}

// TestBadInputIsAnError checks that every malformed description is
// refused with an error — never a panic, never a silent default.
func TestBadInputIsAnError(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	typo := write("typo.json", `{"model":{"preset":"lstm"},"cluster":{"preset":"pcie","machines":2,"gpus_per_machin":4},"algorithm":{"name":"dgc"}}`)
	trailing := write("trailing.json", `{"model":{"preset":"lstm"}} {"model":{"preset":"vgg16"}}`)
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"negative machines", []string{"-machines", "-1"}, "Machines"},
		{"negative gpus", []string{"-gpus", "-2"}, "GPUsPerMachine"},
		{"unknown cluster", []string{"-cluster", "infiniband"}, "unknown cluster preset"},
		{"unknown algorithm", []string{"-algo", "zip"}, "zip"},
		{"unknown model", []string{"-model", "alexnet"}, "alexnet"},
		{"unknown field", []string{"-job", typo}, "typo.json"},
		{"trailing data", []string{"-job", trailing}, "trailing.json"},
		{"missing file", []string{"-job", filepath.Join(dir, "absent.json")}, "absent.json"},
	}
	for _, tc := range cases {
		_, err := cli(simFlags(), tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}

	r, err := cli(simFlags())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Strategy("nccl", nil); err == nil || !strings.Contains(err.Error(), "nccl") {
		t.Errorf("unknown system: err = %v", err)
	}
}

// TestConstraintsReachTheSelector checks that a job file's constraints
// block configures the selection on the CLI path too (three of the four
// private loaders used to drop it), and that the comparison systems
// return a strategy and no report.
func TestConstraintsReachTheSelector(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.json")
	body := `{"model":{"preset":"lstm"},"cluster":{"preset":"pcie","machines":4,"gpus_per_machine":8},
		"algorithm":{"name":"efsignsgd"},"constraints":{"max_compression_ops":2,"forbid_cpu":true}}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := cli(simFlags(), "-job", path)
	if err != nil {
		t.Fatal(err)
	}
	s, rep, err := r.Strategy(jobspec.Espresso, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Offloaded != 0 {
		t.Errorf("report = %+v, want a selection report with nothing offloaded", rep)
	}
	for i, o := range s.PerTensor {
		if o.CompOps() > 2 {
			t.Errorf("tensor %d: %d compression ops despite the budget of 2: %s", i, o.CompOps(), o)
		}
		for _, dev := range o.Devices() {
			if dev == cost.CPU {
				t.Errorf("tensor %d: CPU used despite forbid_cpu: %s", i, o)
			}
		}
	}
	for _, sys := range baselines.All {
		s, rep, err := r.Strategy(string(sys), nil)
		if err != nil || s == nil || rep != nil {
			t.Errorf("%s: strategy %v, report %v, err %v; want a strategy and no report", sys, s, rep, err)
		}
	}
}
