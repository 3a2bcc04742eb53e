// Package jobspec is the one description of a DDL training job — the
// three configuration inputs of the paper's workflow (Figure 6): model,
// training system, GC algorithm — and the one place it is turned into
// the internal representations every layer consumes. The root espresso
// package aliases these types as its public API, the CLIs bind them to
// their -model/-cluster/-machines/-gpus/-algo/-ratio/-job flags (Flags),
// and both pick a system's strategy through Resolved.Strategy.
package jobspec

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"espresso/internal/baselines"
	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/core"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/obs"
	"espresso/internal/par"
	"espresso/internal/strategy"
)

// TensorSpec describes one gradient tensor of a custom model, in backward
// computation order.
type TensorSpec struct {
	Name      string  `json:"name"`
	Elems     int     `json:"elems"`
	ComputeUs float64 `json:"compute_us"`
}

// ModelSpec selects a benchmark model by preset name (vgg16, resnet101,
// ugatit, bert-base, gpt2, lstm) or describes a custom model.
type ModelSpec struct {
	Preset string `json:"preset,omitempty"`

	Name      string       `json:"name,omitempty"`
	Tensors   []TensorSpec `json:"tensors,omitempty"`
	ForwardUs float64      `json:"forward_us,omitempty"`
	Batch     int          `json:"batch,omitempty"`
	BatchUnit string       `json:"batch_unit,omitempty"`
}

// ClusterSpec selects a testbed preset ("nvlink" or "pcie") and the
// machine count; fields beyond the preset override its defaults.
type ClusterSpec struct {
	Preset         string  `json:"preset"`
	Machines       int     `json:"machines"`
	GPUsPerMachine int     `json:"gpus_per_machine,omitempty"`
	IntraGBps      float64 `json:"intra_gbps,omitempty"` // bytes/s in GB/s
	InterGbps      float64 `json:"inter_gbps,omitempty"` // bits/s in Gbit/s
	CPUCores       int     `json:"cpu_cores,omitempty"`
}

// AlgorithmSpec selects a GC algorithm (fp32, randomk, dgc, topk,
// efsignsgd, qsgd, terngrad) and its parameters.
type AlgorithmSpec struct {
	Name   string  `json:"name"`
	Ratio  float64 `json:"ratio,omitempty"`
	Levels int     `json:"levels,omitempty"`
}

// Constraints prune the strategy search space, §4.2.2's user-facing
// extension point (e.g. bounding compression rounds to limit
// approximation error).
type Constraints struct {
	// MaxCompressionOps caps compression+decompression operations per
	// tensor (0 = unlimited).
	MaxCompressionOps int `json:"max_compression_ops,omitempty"`
	// ForbidCPU restricts compression to GPUs.
	ForbidCPU bool `json:"forbid_cpu,omitempty"`
	// ForbidFlat restricts candidate options to hierarchical
	// communication. The cluster's default uncompressed scheme remains
	// admissible as the fallback for tensors left uncompressed.
	ForbidFlat bool `json:"forbid_flat,omitempty"`
}

// Job is a DDL training job description — the three configuration inputs
// of Figure 6, plus optional search-space constraints.
type Job struct {
	Model       ModelSpec     `json:"model"`
	Cluster     ClusterSpec   `json:"cluster"`
	Algorithm   AlgorithmSpec `json:"algorithm"`
	Constraints Constraints   `json:"constraints,omitempty"`

	// Parallelism is the worker count for the strategy search:
	// independent F(S) evaluations (seed evaluations, per-tensor
	// candidate probes) fan out over per-worker timeline engines. 0 or 1
	// selects the sequential search; values below 0 select one worker
	// per CPU. The selected strategy is identical at every setting —
	// parallel ties are broken by candidate index, exactly as the
	// sequential sweep breaks them.
	Parallelism int `json:"parallelism,omitempty"`

	// Explain enables the selection decision log: Report.Decisions gains
	// one entry per tensor with every candidate's predicted iteration
	// time against the final strategy, the winner, and its margin over
	// the runner-up. The extra probes roughly double the evaluation
	// count of a Select call, so it is opt-in.
	Explain bool `json:"explain,omitempty"`
}

// Load reads a job file. Decoding is strict — an unknown field or
// trailing data is an error naming the file, never a silently defaulted
// job.
func Load(path string) (Job, error) {
	var job Job
	data, err := os.ReadFile(path)
	if err != nil {
		return job, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&job); err != nil {
		return job, fmt.Errorf("parsing %s: %w", path, err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return job, fmt.Errorf("parsing %s: trailing data after the job object", path)
	}
	return job, nil
}

// Resolved is a Job in the internal representations the selector, the
// timeline engine and the data plane consume.
type Resolved struct {
	Job     Job
	Model   *model.Model
	Cluster *cluster.Cluster
	Spec    compress.Spec
	Costs   *cost.Models
}

// Resolve validates the three specs and builds their internal forms.
func (j Job) Resolve() (*Resolved, error) {
	m, err := j.Model.resolve()
	if err != nil {
		return nil, err
	}
	c, err := j.Cluster.resolve()
	if err != nil {
		return nil, err
	}
	id, err := compress.ParseID(j.Algorithm.Name)
	if err != nil {
		return nil, err
	}
	spec := compress.Spec{ID: id, Ratio: j.Algorithm.Ratio, Levels: j.Algorithm.Levels}
	cm, err := cost.NewModels(c, spec)
	if err != nil {
		return nil, err
	}
	return &Resolved{Job: j, Model: m, Cluster: c, Spec: spec, Costs: cm}, nil
}

func (ms ModelSpec) resolve() (*model.Model, error) {
	if ms.Preset != "" {
		return model.ByName(ms.Preset)
	}
	if len(ms.Tensors) == 0 {
		return nil, errors.New("espresso: model spec needs a preset or tensors")
	}
	m := &model.Model{
		Name:      cmp.Or(ms.Name, "custom"),
		Forward:   time.Duration(ms.ForwardUs * float64(time.Microsecond)),
		Batch:     cmp.Or(ms.Batch, 1),
		BatchUnit: cmp.Or(ms.BatchUnit, "samples"),
	}
	for _, t := range ms.Tensors {
		m.Tensors = append(m.Tensors, model.Tensor{
			Name:    t.Name,
			Elems:   t.Elems,
			Compute: time.Duration(t.ComputeUs * float64(time.Microsecond)),
		})
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// resolve builds the preset testbed and applies the overrides. Zero
// means "preset default" for every field (one machine for Machines); a
// negative machine or GPU count reaches Validate and is an error.
func (cs ClusterSpec) resolve() (*cluster.Cluster, error) {
	machines := cmp.Or(cs.Machines, 1)
	var c *cluster.Cluster
	switch cs.Preset {
	case "nvlink", "":
		c = cluster.NVLinkTestbed(machines)
	case "pcie":
		c = cluster.PCIeTestbed(machines)
	default:
		return nil, fmt.Errorf("espresso: unknown cluster preset %q", cs.Preset)
	}
	if cs.GPUsPerMachine != 0 {
		c.GPUsPerMachine = cs.GPUsPerMachine
	}
	if cs.IntraGBps > 0 {
		c.IntraBandwidth = cs.IntraGBps * 1e9
	}
	if cs.InterGbps > 0 {
		c.InterBandwidth = cs.InterGbps * 1e9 / 8
	}
	if cs.CPUCores > 0 {
		c.CPUCores = cs.CPUCores
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Espresso names the decision algorithm; other systems go by baselines.System.
const Espresso = "espresso"

// Strategy returns the strategy the named system runs for the job.
// Espresso runs the decision algorithm, configured from the job's
// Parallelism, Explain and Constraints, publishing its search effort
// into metrics when non-nil; the report is nil for the comparison
// systems, which make no selection.
func (r *Resolved) Strategy(system string, metrics *obs.Metrics) (*strategy.Strategy, *core.Report, error) {
	if system == Espresso {
		sel := core.NewSelector(r.Model, r.Cluster, r.Costs)
		sel.Parallelism = r.Job.Parallelism
		if sel.Parallelism < 0 {
			sel.Parallelism = par.Workers(0)
		}
		sel.Explain = r.Job.Explain
		sel.Obs = metrics
		if err := r.constrain(sel); err != nil {
			return nil, nil, err
		}
		return sel.Select()
	}
	sys, ok := baselines.Parse(system)
	if !ok {
		return nil, nil, fmt.Errorf("espresso: unknown system %q", system)
	}
	s, err := baselines.Strategy(sys, r.Model, r.Cluster, r.Costs)
	return s, nil, err
}

// constrain applies the job's search-space constraints to a selector.
func (r *Resolved) constrain(sel *core.Selector) error {
	c := r.Job.Constraints
	var cons []strategy.Constraint
	if c.MaxCompressionOps > 0 {
		cons = append(cons, strategy.MaxCompOps(c.MaxCompressionOps))
	}
	if c.ForbidFlat {
		cons = append(cons, strategy.RequireHierarchical())
	}
	if len(cons) > 0 {
		opts := strategy.Filter(strategy.EnumerateGPU(r.Cluster), cons...)
		if len(opts) == 0 {
			return errors.New("espresso: constraints eliminate every option")
		}
		sel.SetCandidates(opts)
	}
	if c.ForbidCPU {
		sel.SetDevices([]cost.Device{cost.GPU})
	}
	return nil
}
