package chaos

import (
	"fmt"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/core"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/obs/flight"
	"espresso/internal/obs/wtrace"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
)

// ReselectOptions parameterizes degradation-triggered re-selection.
type ReselectOptions struct {
	// InterScale is the observed inter-machine bandwidth degradation in
	// (0, 1] — the bottleneck link's bandwidth over the healthy value.
	InterScale float64
	// GPUScale/CPUScale are the slow-device multipliers active at the
	// trigger (>= 1; 0 means healthy).
	GPUScale, CPUScale float64
	// Parallelism is the strategy-search worker count (the PR-2 pools);
	// the re-selected strategy is identical at every setting.
	Parallelism int
	// Explain populates the decision log of the re-selection;
	// ProbeDeadline bounds its wall-clock cost.
	Explain       bool
	ProbeDeadline time.Duration

	// Tracer, when non-nil, wall-clock-traces the re-selection's search
	// phases as a "reselect" request; Flight, when non-nil, captures the
	// completed re-selection as an unconditional anomaly record — a
	// Monitor trip is by definition an event worth keeping.
	Tracer *wtrace.Tracer
	Flight *flight.Recorder
}

// Shape classifies a strategy's tensors by communication pattern — the
// flat-vs-hierarchical split whose crossover under a slow link is the
// headline robustness effect.
type Shape struct {
	Flat         int `json:"flat"`
	Hierarchical int `json:"hierarchical"`
	Uncompressed int `json:"uncompressed"`
	Offloaded    int `json:"offloaded"`
}

func (s Shape) String() string {
	return fmt.Sprintf("%d flat / %d hierarchical / %d uncompressed (%d offloaded)",
		s.Flat, s.Hierarchical, s.Uncompressed, s.Offloaded)
}

// ShapeOf classifies every tensor of a strategy.
func ShapeOf(s *strategy.Strategy) Shape {
	var out Shape
	for _, opt := range s.PerTensor {
		if !opt.Compressed() {
			out.Uncompressed++
			continue
		}
		flat := false
		offloaded := false
		for _, st := range opt.Steps {
			if st.Scope == strategy.Flat {
				flat = true
			}
			if st.Dev == cost.CPU {
				offloaded = true
			}
		}
		if flat {
			out.Flat++
		} else {
			out.Hierarchical++
		}
		if offloaded {
			out.Offloaded++
		}
	}
	return out
}

// Reselection is the before/after record of one degradation-triggered
// strategy re-selection.
type Reselection struct {
	// Iteration is the iteration index at which the monitor tripped.
	Iteration int `json:"iteration"`
	// InterScale/GPUScale/CPUScale echo the degraded topology the
	// selector was given.
	InterScale float64 `json:"inter_scale"`
	GPUScale   float64 `json:"gpu_scale,omitempty"`
	CPUScale   float64 `json:"cpu_scale,omitempty"`
	// Before is the incumbent strategy's predicted iteration time on the
	// degraded topology; After is the re-selected strategy's. After <=
	// Before always (the search is warm-started from the incumbent).
	Before Duration `json:"before"`
	After  Duration `json:"after"`
	// Improvement is 1 - After/Before.
	Improvement float64 `json:"improvement"`
	// Adopted reports whether the runner switched strategies (After
	// strictly better than Before).
	Adopted bool `json:"adopted"`
	// BeforeShape/AfterShape summarize the strategies' communication
	// patterns; a flat->hierarchical (or reverse) move is the crossover.
	BeforeShape Shape `json:"before_shape"`
	AfterShape  Shape `json:"after_shape"`
	// SelectionTime is the wall-clock cost of the re-selection.
	SelectionTime Duration `json:"selection_time"`
	// ExplainTruncated mirrors the selector's flag when the decision-log
	// re-probe hit its deadline.
	ExplainTruncated bool `json:"explain_truncated,omitempty"`
	// Decisions is the re-selection's decision log (Explain only).
	Decisions []core.TensorDecision `json:"-"`
}

// Reselect re-runs strategy selection on a degraded topology, warm-
// started from the incumbent strategy. The returned strategy is never
// worse than prior under the degraded cost models; Adopted is set when
// it is strictly better.
func Reselect(m *model.Model, c *cluster.Cluster, spec compress.Spec, prior *strategy.Strategy, opt ReselectOptions) (*strategy.Strategy, *Reselection, error) {
	if opt.InterScale <= 0 || opt.InterScale > 1 {
		return nil, nil, fmt.Errorf("chaos: inter-machine scale %g, want (0, 1]", opt.InterScale)
	}
	gpuS, cpuS := opt.GPUScale, opt.CPUScale
	if gpuS < 1 {
		gpuS = 1
	}
	if cpuS < 1 {
		cpuS = 1
	}

	dc, err := c.WithBandwidthScale(1, opt.InterScale)
	if err != nil {
		return nil, nil, err
	}
	dcm, err := cost.NewModels(dc, spec)
	if err != nil {
		return nil, nil, err
	}
	if dcm, err = dcm.WithDeviceScale(gpuS, cpuS); err != nil {
		return nil, nil, err
	}

	// The incumbent's predicted iteration time on the degraded topology.
	eng := timeline.New(m, dc, dcm)
	eng.RecordOps = false
	before, err := eng.IterTime(prior)
	if err != nil {
		return nil, nil, err
	}

	sel := core.NewSelector(m, dc, dcm)
	sel.Parallelism = opt.Parallelism
	sel.Explain = opt.Explain
	sel.ProbeDeadline = opt.ProbeDeadline
	req := opt.Tracer.Start("reselect")
	sel.Trace = req
	after, rep, err := sel.SelectFrom(prior)
	if req != nil || opt.Flight != nil {
		fp := fmt.Sprintf("reselect inter=%.3g gpu=%.3g cpu=%.3g model=%s",
			opt.InterScale, gpuS, cpuS, m.Name)
		var evals int64
		var selTime time.Duration
		if rep != nil {
			evals = int64(rep.Evals)
			selTime = rep.SelectionTime
		} else if req != nil {
			selTime = req.Elapsed()
		}
		outcome := flight.OutcomeReselect
		if err != nil {
			outcome = flight.OutcomeError
		}
		opt.Flight.Complete(req, fp, evals, selTime, outcome, err)
		req.Release()
		sel.Trace = nil
	}
	if err != nil {
		return nil, nil, err
	}

	rs := &Reselection{
		InterScale: opt.InterScale, GPUScale: gpuS, CPUScale: cpuS,
		Before: Duration(before), After: Duration(rep.Iter),
		Adopted:          rep.Iter < before,
		BeforeShape:      ShapeOf(prior),
		AfterShape:       ShapeOf(after),
		SelectionTime:    Duration(rep.SelectionTime),
		ExplainTruncated: rep.ExplainTruncated,
		Decisions:        rep.Decisions,
	}
	if before > 0 {
		rs.Improvement = 1 - float64(rep.Iter)/float64(before)
	}
	return after, rs, nil
}

// bottleneckScale is the worst off-diagonal link bandwidth in snapshot
// relative to base, clamped to (0, 1].
func bottleneckScale(snapshot [][]float64, base float64) float64 {
	scale := 1.0
	for i := range snapshot {
		for j, b := range snapshot[i] {
			if i == j || base <= 0 {
				continue
			}
			if s := b / base; s < scale {
				scale = s
			}
		}
	}
	if scale <= 0 {
		scale = 1e-9
	}
	return scale
}
