package espresso

import (
	"fmt"
	"io"

	"espresso/internal/core"
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
func (t *Telemetry) observe(r *resolved, s *Strategy) error {
	eng := timeline.New(r.m, r.c, r.cm)
	res, err := eng.Evaluate(s.inner)
	if err != nil {
		return err
	}
	return eng.Observe(t.trace, t.metrics, res, s.inner)
}

// SelectTraced is Select with telemetry: the strategy search publishes
// its effort into tel's metrics (search.* series), and the selected
// strategy's derived timeline lands in tel's trace — one span per
// compute/encode/collective/decode/offload operation per rank.
func SelectTraced(job Job, tel *Telemetry) (*Strategy, *Report, error) {
	if tel == nil {
		return Select(job)
	}
	// Wall clock, not virtual time: api.* series observe the process's
	// own performance.
	defer tel.metrics.Timer("api.select.wall_seconds")()
	r, err := job.resolve()
	if err != nil {
		return nil, nil, err
	}
	sel := core.NewSelector(r.m, r.c, r.cm)
	sel.Parallelism = job.workers()
	sel.Explain = job.Explain
	sel.Obs = tel.metrics
	if err := applyConstraints(sel, job, r); err != nil {
		return nil, nil, err
	}
	s, rep, err := sel.Select()
	if err != nil {
		return nil, nil, err
	}
	out := report(r, rep.Iter)
	out.SelectionTime = rep.SelectionTime
	out.Evaluations = rep.Evals
	out.CompressedTensors = rep.Compressed
	out.OffloadedTensors = rep.Offloaded
	out.Decisions = choices(rep.Decisions)
	wrapped := wrapStrategy(s, r.m)
	if err := tel.observe(r, wrapped); err != nil {
		return nil, nil, fmt.Errorf("espresso: telemetry: %w", err)
	}
	return wrapped, out, nil
}

// PredictTraced is Predict with telemetry: the strategy's derived
// timeline is replayed into tel alongside the performance report.
func PredictTraced(job Job, s *Strategy, tel *Telemetry) (*Report, error) {
	if tel != nil {
		defer tel.metrics.Timer("api.predict.wall_seconds")()
	}
	rep, err := Predict(job, s)
	if err != nil {
		return nil, err
	}
	if tel != nil {
		r, err := job.resolve()
		if err != nil {
			return nil, err
		}
		if err := tel.observe(r, s); err != nil {
			return nil, fmt.Errorf("espresso: telemetry: %w", err)
		}
	}
	return rep, nil
}
