package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"espresso/client"
	"espresso/internal/chaos"
	"espresso/internal/core"
	"espresso/internal/obs"
	"espresso/internal/obs/flight"
	"espresso/internal/obs/wtrace"
	"espresso/internal/oracle/diff"
	"espresso/internal/store"
)

// executor runs asynchronous jobs on a bounded worker pool. Each job
// gets its own context (canceled by DELETE /v1/jobs/{id}, server
// shutdown, or its deadline) checked between iterations, so a runaway
// chaos replay stops at the next iteration boundary.
type executor struct {
	st       *store.Store
	log      *slog.Logger
	m        *obs.Metrics
	deadline time.Duration
	// tracer and flight receive chaos jobs' re-selections, as they receive
	// synchronous selections.
	tracer *wtrace.Tracer
	flight *flight.Recorder

	sem     chan struct{}
	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	queued  atomic.Int64
	running atomic.Int64

	mu      sync.Mutex
	cancels map[string]context.CancelFunc
	crashed bool // Abort(): skip terminal-state writes, simulating kill -9
}

// gauge mirrors one of the executor's occupancy counters onto the
// metrics registry (obs gauges are set-only).
func (e *executor) gauge(name string, c *atomic.Int64, delta int64) {
	e.m.Gauge(name).Set(float64(c.Add(delta)))
}

func newExecutor(cfg Config) *executor {
	ctx, cancel := context.WithCancel(context.Background())
	return &executor{
		st:       cfg.Store,
		log:      cfg.Log,
		m:        cfg.Metrics,
		deadline: cfg.JobDeadline,
		tracer:   cfg.Tracer,
		flight:   cfg.Flight,
		sem:      make(chan struct{}, cfg.Workers),
		baseCtx:  ctx,
		stop:     cancel,
		cancels:  make(map[string]context.CancelFunc),
	}
}

// submit enqueues one validated job. The store row already exists in
// the queued state; the goroutine takes it to running once a worker
// slot frees up.
func (e *executor) submit(job store.Job, req client.JobRequest) {
	deadline := e.deadline
	if req.DeadlineMs > 0 {
		if d := time.Duration(req.DeadlineMs) * time.Millisecond; d < deadline {
			deadline = d
		}
	}
	ctx, cancel := context.WithCancel(e.baseCtx)
	e.mu.Lock()
	e.cancels[job.ID] = cancel
	e.mu.Unlock()

	e.wg.Add(1)
	e.m.Counter("api.jobs.submitted").Inc()
	e.gauge("api.jobs.queued", &e.queued, 1)
	go func() {
		defer e.wg.Done()
		defer cancel()
		defer func() {
			e.mu.Lock()
			delete(e.cancels, job.ID)
			e.mu.Unlock()
		}()

		// Wait for a worker slot; cancellation while queued is final.
		select {
		case e.sem <- struct{}{}:
			defer func() { <-e.sem }()
		case <-ctx.Done():
			e.gauge("api.jobs.queued", &e.queued, -1)
			e.finish(job.ID, store.JobCanceled, "canceled while queued", "")
			return
		}
		e.gauge("api.jobs.queued", &e.queued, -1)
		e.gauge("api.jobs.running", &e.running, 1)
		defer e.gauge("api.jobs.running", &e.running, -1)

		// The deadline clock starts when the job starts running, not when
		// it was queued behind other work.
		ctx, cancelDeadline := context.WithTimeout(ctx, deadline)
		defer cancelDeadline()

		if err := e.st.SetJobState(job.ID, store.JobRunning, "", ""); err != nil {
			e.log.Error("job start", "job", job.ID, "err", err)
			return
		}
		e.log.Info("job running", "job", job.ID, "kind", req.Kind, "deadline", deadline)

		var (
			reportID string
			runErr   error
		)
		stop := e.m.Timer("api.jobs." + req.Kind + ".wall_seconds")
		switch req.Kind {
		case "chaos":
			reportID, runErr = e.runChaos(ctx, req)
		case "verify":
			reportID, runErr = e.runVerify(ctx, req)
		default:
			runErr = fmt.Errorf("unknown job kind %q", req.Kind)
		}
		stop()

		switch {
		case runErr == nil:
			e.m.Counter("api.jobs.succeeded").Inc()
			e.finish(job.ID, store.JobSucceeded, "", reportID)
		case errors.Is(ctx.Err(), context.DeadlineExceeded):
			e.m.Counter("api.jobs.failed").Inc()
			e.finish(job.ID, store.JobFailed, fmt.Sprintf("deadline %s exceeded", deadline), "")
		case ctx.Err() != nil:
			e.m.Counter("api.jobs.canceled").Inc()
			e.finish(job.ID, store.JobCanceled, "canceled", "")
		default:
			e.m.Counter("api.jobs.failed").Inc()
			e.finish(job.ID, store.JobFailed, runErr.Error(), "")
		}
	}()
}

// finish writes the terminal state unless the executor crashed (Abort),
// in which case the row must stay as-is on disk for recovery to find.
func (e *executor) finish(id string, st store.JobState, errMsg, reportID string) {
	e.mu.Lock()
	crashed := e.crashed
	e.mu.Unlock()
	if crashed {
		return
	}
	if err := e.st.SetJobState(id, st, errMsg, reportID); err != nil && err != store.ErrClosed {
		e.log.Error("job finish", "job", id, "state", st, "err", err)
		return
	}
	e.log.Info("job done", "job", id, "state", st, "report", reportID, "err", errMsg)
}

// cancel requests cancellation of one job.
func (e *executor) cancel(id string) {
	e.mu.Lock()
	c, ok := e.cancels[id]
	e.mu.Unlock()
	if ok {
		c()
	}
}

// close cancels everything and waits for goroutines to drain; running
// jobs are marked canceled ("server shutting down" is indistinguishable
// from DELETE on the wire, and both are honest).
func (e *executor) close() {
	e.stop()
	e.wg.Wait()
}

// abort simulates a crash: stop goroutines but leave rows untouched.
func (e *executor) abort() {
	e.mu.Lock()
	e.crashed = true
	e.mu.Unlock()
	e.stop()
	e.wg.Wait()
}

// runChaos selects a strategy for the seeded case, replays Iters
// iterations under the fault plan, and persists the full chaos report.
func (e *executor) runChaos(ctx context.Context, req client.JobRequest) (string, error) {
	c, cm, err := BuildCase(req.Seed, req.Gen)
	if err != nil {
		return "", err
	}
	sel := core.NewSelector(c.Model, c.Cluster, cm)
	sel.Parallelism = req.Parallelism
	strat, _, err := sel.Select()
	if err != nil {
		return "", fmt.Errorf("selecting strategy: %w", err)
	}
	plan, err := chaos.Parse(req.Plan)
	if err != nil {
		return "", fmt.Errorf("plan: %w", err)
	}
	runner, err := chaos.NewRunner(c.Model, c.Cluster, c.Spec, strat, plan)
	if err != nil {
		return "", fmt.Errorf("building runner: %w", err)
	}
	runner.Deterministic = true
	runner.Tracer, runner.Flight = e.tracer, e.flight

	iters := req.Iters
	if iters == 0 {
		iters = defChaosIters
	}
	for it := 0; it < iters; it++ {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		if _, err := runner.RunIteration(it); err != nil {
			return "", fmt.Errorf("iteration %d: %w", it, err)
		}
	}

	id, _, err := putReport(e.st, "chaos", req.Seed, func(id string) ([]byte, error) {
		return EncodeChaos(id, c, iters, runner.Report())
	})
	return id, err
}

// runVerify runs the differential-oracle harness case by case (so
// cancellation lands between cases) and persists the merged summary.
func (e *executor) runVerify(ctx context.Context, req client.JobRequest) (string, error) {
	cases := req.Cases
	if cases == 0 {
		cases = defVerifyCases
	}
	base := req.Seed
	if base == 0 {
		base = 1 // diff.Run's own default; normalize so the report matches
	}
	out := client.VerifyResponse{
		Kind:       "verify",
		Seed:       base,
		Cases:      cases,
		Assertions: map[string]int{},
		Failures:   []client.VerifyFailure{},
	}
	for i := 0; i < cases; i++ {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		sum, err := diff.Run(diff.Config{Cases: 1, Seed: base + uint64(i)})
		if err != nil {
			return "", fmt.Errorf("case seed=%d: %w", base+uint64(i), err)
		}
		for name, n := range sum.Checks {
			out.Assertions[name] += n
		}
		for _, f := range sum.Failures {
			out.Failures = append(out.Failures, client.VerifyFailure{Seed: f.Seed, Check: f.Check, Detail: f.Detail})
		}
	}
	out.Passed = len(out.Failures) == 0

	id, _, err := putReport(e.st, "verify", base, func(id string) ([]byte, error) {
		out.ID = id
		return json.Marshal(out)
	})
	return id, err
}
