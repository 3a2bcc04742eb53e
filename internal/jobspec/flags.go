package jobspec

import (
	"flag"

	"espresso/internal/par"
)

// Flags binds a Job to a CLI's -model/-cluster/-machines/-gpus/-algo/
// -ratio flags and, when JobFlag is set, -job. A command fills in its own
// defaults, calls Register before flag.Parse and Job after it.
type Flags struct {
	Model    string
	Cluster  string
	Machines int
	GPUs     int
	Algo     string
	Ratio    float64

	// JobFlag also registers -job; File receives its value.
	JobFlag bool
	File    string

	// ParallelFlag also registers -parallel (search workers, 0 = one per
	// CPU), with Parallel as its default and receiving its value;
	// ExplainFlag also registers -explain.
	ParallelFlag bool
	Parallel     int
	ExplainFlag  bool

	explain bool
	fs      *flag.FlagSet
}

// Register installs the job flags on fs (the default FlagSet when fs is
// nil), with f's current field values as their defaults.
func (f *Flags) Register(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	f.fs = fs
	fs.StringVar(&f.Model, "model", f.Model, "model preset")
	fs.StringVar(&f.Cluster, "cluster", f.Cluster, "cluster preset (nvlink, pcie)")
	fs.IntVar(&f.Machines, "machines", f.Machines, "GPU machines")
	fs.IntVar(&f.GPUs, "gpus", f.GPUs, "GPUs per machine (0 = preset default)")
	fs.StringVar(&f.Algo, "algo", f.Algo, "GC algorithm")
	fs.Float64Var(&f.Ratio, "ratio", f.Ratio, "sparsifier ratio")
	if f.JobFlag {
		fs.StringVar(&f.File, "job", "", "JSON job file with model/cluster/algorithm specs")
	}
	if f.ParallelFlag {
		fs.IntVar(&f.Parallel, "parallel", f.Parallel, "strategy-search workers (0 = one per CPU); the selected strategy is identical at any setting")
	}
	if f.ExplainFlag {
		fs.BoolVar(&f.explain, "explain", false, "print the selector's per-tensor decision log (espresso system only)")
	}
}

// Job assembles the job after the FlagSet is parsed. One precedence rule
// for every command: flag default < job file < flag passed explicitly.
// A field the file leaves unset takes the flag's value; a file that
// describes a model (preset or tensors) is never overridden by the
// -model default.
func (f *Flags) Job() (Job, error) {
	var job Job
	if f.File != "" {
		var err error
		if job, err = Load(f.File); err != nil {
			return job, err
		}
	}
	passed := map[string]bool{}
	f.fs.Visit(func(fl *flag.Flag) { passed[fl.Name] = true })

	if passed["model"] || (job.Model.Preset == "" && len(job.Model.Tensors) == 0) {
		job.Model = ModelSpec{Preset: f.Model}
	}
	if passed["cluster"] || job.Cluster.Preset == "" {
		job.Cluster.Preset = f.Cluster
	}
	if passed["machines"] || job.Cluster.Machines == 0 {
		job.Cluster.Machines = f.Machines
	}
	if passed["gpus"] || job.Cluster.GPUsPerMachine == 0 {
		job.Cluster.GPUsPerMachine = f.GPUs
	}
	if passed["algo"] || job.Algorithm.Name == "" {
		job.Algorithm.Name = f.Algo
	}
	if passed["ratio"] || job.Algorithm.Ratio == 0 {
		job.Algorithm.Ratio = f.Ratio
	}
	if f.ParallelFlag && (passed["parallel"] || job.Parallelism == 0) {
		job.Parallelism = par.Workers(f.Parallel)
	}
	if passed["explain"] {
		job.Explain = f.explain
	}
	return job, nil
}
