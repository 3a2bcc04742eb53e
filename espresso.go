// Package espresso is a reproduction of "Hi-Speed DNN Training with
// Espresso: Unleashing the Full Potential of Gradient Compression with
// Near-Optimal Usage Strategies" (EuroSys 2023). It selects near-optimal
// gradient-compression usage strategies for synchronous data-parallel
// DNN training: which tensors to compress, on which device (GPU or CPU),
// with which communication scheme, and where along the hierarchical
// communication pipeline to compress and decompress.
//
// The public API mirrors the paper's workflow (Figure 6): describe a Job
// with three specs — the DNN model, the GC algorithm, and the training
// system — then Select a strategy, Predict its training throughput, or
// compare against the Baseline systems (FP32/BytePS, HiPress,
// HiTopKComm, BytePS-Compress) and the compression-free Upper Bound.
//
//	job := espresso.Job{
//	    Model:     espresso.ModelSpec{Preset: "bert-base"},
//	    Cluster:   espresso.ClusterSpec{Preset: "nvlink", Machines: 8},
//	    Algorithm: espresso.AlgorithmSpec{Name: "randomk", Ratio: 0.01},
//	}
//	strategy, report, err := espresso.Select(job)
//
// Everything runs on a deterministic simulated substrate: calibrated α–β
// communication models, device compression profiles, and a discrete-event
// timeline engine, with real compression mathematics (error feedback
// included) underneath.
package espresso

import (
	"fmt"
	"time"

	"espresso/internal/baselines"
	"espresso/internal/core"
	"espresso/internal/cost"
	"espresso/internal/jobspec"
	"espresso/internal/model"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
)

// The job description — the three configuration inputs of Figure 6. The
// types live in internal/jobspec, which documents their fields and which
// the command-line tools bind their job flags and -job files to.
type (
	// Job is a DDL training job: the three specs below, optional
	// search-space Constraints, the search's Parallelism (0 or 1
	// sequential, N workers, below 0 one per CPU — the selected strategy
	// is identical at every setting) and the opt-in Explain decision log.
	Job = jobspec.Job
	// ModelSpec selects a benchmark model by Preset (vgg16, resnet101,
	// ugatit, bert-base, gpt2, lstm) or describes a custom one by Tensors.
	ModelSpec = jobspec.ModelSpec
	// TensorSpec is one gradient tensor of a custom model, in backward order.
	TensorSpec = jobspec.TensorSpec
	// ClusterSpec selects a testbed Preset ("nvlink" or "pcie") and the
	// machine count; the remaining fields override the preset.
	ClusterSpec = jobspec.ClusterSpec
	// AlgorithmSpec selects a GC algorithm (fp32, randomk, dgc, topk,
	// efsignsgd, qsgd, terngrad) and its parameters.
	AlgorithmSpec = jobspec.AlgorithmSpec
	// Constraints prune the strategy search space (§4.2.2): a cap on
	// compression operations per tensor, GPU-only, hierarchical-only.
	Constraints = jobspec.Constraints
)

// Decision is the selected compression option for one tensor.
type Decision struct {
	Tensor     string `json:"tensor"`
	Elems      int    `json:"elems"`
	Compressed bool   `json:"compressed"`
	Device     string `json:"device,omitempty"`
	Option     string `json:"option"`
}

// Strategy is a selected (or baseline) compression strategy.
type Strategy struct {
	Decisions []Decision `json:"decisions"`

	inner *strategy.Strategy
	m     *model.Model
}

// CompressedCount reports how many tensors the strategy compresses.
func (s *Strategy) CompressedCount() int { return s.inner.CompressedCount() }

// Export serializes the full strategy (every tensor's option sequence) so
// a selection made offline can be applied later with ImportStrategy.
func (s *Strategy) Export() ([]byte, error) {
	return strategy.Marshal(s.inner)
}

// ImportStrategy loads a strategy exported by Export and validates it
// against the job: the tensor count must match and every option must be
// structurally valid for the job's cluster.
func ImportStrategy(job Job, data []byte) (*Strategy, error) {
	r, err := job.Resolve()
	if err != nil {
		return nil, err
	}
	inner, err := strategy.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	if len(inner.PerTensor) != len(r.Model.Tensors) {
		return nil, fmt.Errorf("espresso: strategy covers %d tensors, model %s has %d",
			len(inner.PerTensor), r.Model.Name, len(r.Model.Tensors))
	}
	for i, o := range inner.PerTensor {
		if err := strategy.Check(o, r.Cluster); err != nil {
			return nil, fmt.Errorf("espresso: tensor %d: %w", i, err)
		}
	}
	return wrapStrategy(inner, r.Model), nil
}

// Report summarizes a selection or prediction.
type Report struct {
	// IterTime is the predicted time of one training iteration.
	IterTime time.Duration `json:"iter_time"`
	// Throughput is in samples (images/tokens) per second cluster-wide.
	Throughput float64 `json:"throughput"`
	// ScalingFactor is T_n/(n*T_1), the paper's Table 1 metric.
	ScalingFactor float64 `json:"scaling_factor"`
	// Unit names the throughput unit.
	Unit string `json:"unit"`

	// Selection-only fields.
	SelectionTime     time.Duration `json:"selection_time,omitempty"`
	Evaluations       int           `json:"evaluations,omitempty"`
	CompressedTensors int           `json:"compressed_tensors,omitempty"`
	OffloadedTensors  int           `json:"offloaded_tensors,omitempty"`

	// Decisions is the per-tensor decision log, present only when the
	// job's Explain flag was set.
	Decisions []TensorChoice `json:"decisions,omitempty"`
}

// CandidateOutcome is one probed alternative in a decision-log entry:
// the per-tensor option and the predicted iteration time the job would
// have if only this tensor switched to it.
type CandidateOutcome struct {
	Option   string        `json:"option"`
	IterTime time.Duration `json:"iter_time"`
	Chosen   bool          `json:"chosen,omitempty"`
}

// TensorChoice explains the selector's decision for one tensor: the
// chosen option, the best alternative, and how much slower the iteration
// would get under it (the margin).
type TensorChoice struct {
	// Tensor is the layer parameter name; Index its backward position.
	Tensor string `json:"tensor"`
	Index  int    `json:"index"`
	// Chosen is the selected option; IterTime is F(S) of the final
	// strategy (identical across tensors).
	Chosen   string        `json:"chosen"`
	IterTime time.Duration `json:"iter_time"`
	// RunnerUp is the best probed alternative and Margin is how much
	// the iteration slows if this tensor switches to it. A zero margin
	// is a tie — common for tensors whose communication hides entirely
	// inside backward compute.
	RunnerUp string        `json:"runner_up,omitempty"`
	Margin   time.Duration `json:"margin"`
	// RuledOut reports that bubble analysis (Property #1) excluded this
	// tensor from the compression sweep.
	RuledOut bool `json:"ruled_out,omitempty"`
	// Candidates lists every probed option, fastest first.
	Candidates []CandidateOutcome `json:"candidates,omitempty"`
}

// choices converts the internal decision log to its public form.
func choices(decs []core.TensorDecision) []TensorChoice {
	if len(decs) == 0 {
		return nil
	}
	out := make([]TensorChoice, len(decs))
	for i, d := range decs {
		tc := TensorChoice{
			Tensor:   d.Name,
			Index:    d.Tensor,
			Chosen:   d.Chosen.String(),
			IterTime: d.ChosenIter,
			Margin:   d.Margin,
			RuledOut: d.Ruled,
		}
		if d.RunnerUpIter > 0 {
			tc.RunnerUp = d.RunnerUp.String()
		}
		for _, c := range d.Candidates {
			tc.Candidates = append(tc.Candidates, CandidateOutcome{
				Option: c.Option.String(), IterTime: c.Iter, Chosen: c.Chosen,
			})
		}
		out[i] = tc
	}
	return out
}

func wrapStrategy(s *strategy.Strategy, m *model.Model) *Strategy {
	out := &Strategy{inner: s, m: m}
	for i, o := range s.PerTensor {
		d := Decision{
			Tensor:     m.Tensors[i].Name,
			Elems:      m.Tensors[i].Elems,
			Compressed: o.Compressed(),
			Option:     o.String(),
		}
		if o.Compressed() {
			if o.AllOn(cost.CPU) {
				d.Device = "CPU"
			} else {
				d.Device = "GPU"
			}
		}
		out.Decisions = append(out.Decisions, d)
	}
	return out
}

func report(r *jobspec.Resolved, iter time.Duration) *Report {
	return &Report{
		IterTime:      iter,
		Throughput:    core.Throughput(r.Model, r.Cluster, iter),
		ScalingFactor: core.ScalingFactor(r.Model, r.Cluster, iter),
		Unit:          r.Model.BatchUnit + "/s",
	}
}

// predict reports inner's iteration time on the resolved job.
func predict(r *jobspec.Resolved, inner *strategy.Strategy) (*Report, error) {
	eng := timeline.New(r.Model, r.Cluster, r.Costs)
	eng.RecordOps = false
	iter, err := eng.IterTime(inner)
	if err != nil {
		return nil, err
	}
	return report(r, iter), nil
}

// Select runs Espresso's decision algorithm (Algorithm 1 plus CPU
// offloading) and returns the selected strategy with its predicted
// performance.
func Select(job Job) (*Strategy, *Report, error) {
	return SelectTraced(job, nil)
}

// BaselineName identifies a comparison system.
type BaselineName string

const (
	FP32           = BaselineName(baselines.FP32)
	HiPress        = BaselineName(baselines.HiPress)
	HiTopKComm     = BaselineName(baselines.HiTopKComm)
	BytePSCompress = BaselineName(baselines.BytePSCompress)
)

// Baseline returns the strategy the named comparison system would run and
// its predicted performance.
func Baseline(name BaselineName, job Job) (*Strategy, *Report, error) {
	if name == jobspec.Espresso {
		return nil, nil, fmt.Errorf("espresso: %q is not a baseline; use Select", name)
	}
	r, err := job.Resolve()
	if err != nil {
		return nil, nil, err
	}
	s, _, err := r.Strategy(string(name), nil)
	if err != nil {
		return nil, nil, err
	}
	rep, err := predict(r, s)
	if err != nil {
		return nil, nil, err
	}
	return wrapStrategy(s, r.Model), rep, nil
}

// UpperBound predicts the throughput of compression-enabled training if
// compression were free and contention-less (§5.1).
func UpperBound(job Job) (*Report, error) {
	r, err := job.Resolve()
	if err != nil {
		return nil, err
	}
	iter, err := core.UpperBound(r.Model, r.Cluster, r.Costs)
	if err != nil {
		return nil, err
	}
	return report(r, iter), nil
}

// Predict evaluates a strategy's iteration time for the job it was built
// for.
func Predict(job Job, s *Strategy) (*Report, error) {
	return PredictTraced(job, s, nil)
}

// Gantt derives the full timeline of one iteration under s and renders it
// as a text Gantt chart.
func Gantt(job Job, s *Strategy) (string, error) {
	r, err := job.Resolve()
	if err != nil {
		return "", err
	}
	eng := timeline.New(r.Model, r.Cluster, r.Costs)
	res, err := eng.Evaluate(s.inner)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("iteration=%v\n%s", res.Iter, res.Gantt()), nil
}
