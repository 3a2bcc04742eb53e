package espresso

import (
	"fmt"
	"io"

	"espresso/internal/jobspec"
	"espresso/internal/obs"
	"espresso/internal/timeline"
)

// Telemetry collects the virtual-time trace and the metrics of a traced
// Select or Predict call: one Chrome trace-event span per operation per
// rank (open the WriteTrace output in Perfetto or chrome://tracing), plus
// a registry of counters, gauges, and histograms — wire bytes, queue
// waits, resource utilization, strategy-search effort. One Telemetry can
// accumulate several calls; spans and counters append.
type Telemetry struct {
	trace   *obs.Trace
	metrics *obs.Metrics
}

// NewTelemetry returns an empty collector.
func NewTelemetry() *Telemetry {
	return &Telemetry{trace: obs.NewTrace(), metrics: obs.NewMetrics()}
}

// WriteTrace writes the collected spans as Chrome trace-event JSON —
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Timestamps
// are the simulation's virtual clock in microseconds; each rank is a
// process, each device (gpu, cpu, pcie, intra, inter, nic) a thread.
func (t *Telemetry) WriteTrace(w io.Writer) error { return t.trace.WriteChrome(w) }

// WriteMetrics writes the metrics registry as JSON: counters, gauges, and
// cumulative (Prometheus-style) histograms.
func (t *Telemetry) WriteMetrics(w io.Writer) error { return t.metrics.WriteJSON(w) }

// SpanCount reports how many spans have been collected.
func (t *Telemetry) SpanCount() int { return t.trace.Len() }

// Reset discards everything collected so far.
func (t *Telemetry) Reset() {
	t.trace.Reset()
	t.metrics = obs.NewMetrics()
}

// observe replays a strategy's derived timeline into the collector.
func (t *Telemetry) observe(r *jobspec.Resolved, s *Strategy) error {
	eng := timeline.New(r.Model, r.Cluster, r.Costs)
	res, err := eng.Evaluate(s.inner)
	if err == nil {
		err = eng.Observe(t.trace, t.metrics, res, s.inner)
	}
	if err != nil {
		return fmt.Errorf("espresso: telemetry: %w", err)
	}
	return nil
}

// SelectTraced is Select with telemetry: the strategy search publishes
// its effort into tel's metrics (search.* series), and the selected
// strategy's derived timeline lands in tel's trace — one span per
// compute/encode/collective/decode/offload operation per rank. A nil tel
// is plain Select.
func SelectTraced(job Job, tel *Telemetry) (*Strategy, *Report, error) {
	var metrics *obs.Metrics
	if tel != nil {
		// Wall clock, not virtual time: api.* series observe the
		// process's own performance.
		defer tel.metrics.Timer("api.select.wall_seconds")()
		metrics = tel.metrics
	}
	r, err := job.Resolve()
	if err != nil {
		return nil, nil, err
	}
	s, rep, err := r.Strategy(jobspec.Espresso, metrics)
	if err != nil {
		return nil, nil, err
	}
	out := report(r, rep.Iter)
	out.SelectionTime = rep.SelectionTime
	out.Evaluations = rep.Evals
	out.CompressedTensors = rep.Compressed
	out.OffloadedTensors = rep.Offloaded
	out.Decisions = choices(rep.Decisions)
	wrapped := wrapStrategy(s, r.Model)
	if tel != nil {
		if err := tel.observe(r, wrapped); err != nil {
			return nil, nil, err
		}
	}
	return wrapped, out, nil
}

// PredictTraced is Predict with telemetry: the strategy's derived
// timeline is replayed into tel alongside the performance report. A nil
// tel is plain Predict.
func PredictTraced(job Job, s *Strategy, tel *Telemetry) (*Report, error) {
	if tel != nil {
		defer tel.metrics.Timer("api.predict.wall_seconds")()
	}
	r, err := job.Resolve()
	if err != nil {
		return nil, err
	}
	if s.m.Name != r.Model.Name || len(s.inner.PerTensor) != len(r.Model.Tensors) {
		return nil, fmt.Errorf("espresso: strategy was built for model %s (%d tensors), job has %s (%d)",
			s.m.Name, len(s.inner.PerTensor), r.Model.Name, len(r.Model.Tensors))
	}
	rep, err := predict(r, s.inner)
	if err != nil {
		return nil, err
	}
	if tel != nil {
		if err := tel.observe(r, s); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
