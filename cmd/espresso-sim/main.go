// Command espresso-sim executes a compression strategy end to end on the
// simulated cluster: real gradient bytes flow through the compression,
// collective, and error-feedback stack for a number of iterations, the
// result is checked for cross-GPU agreement, and the derived timeline is
// printed as a Gantt chart.
//
//	espresso-sim -model lstm -cluster pcie -machines 2 -algo dgc -system espresso -iters 3
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"time"

	"espresso/internal/chaos"
	"espresso/internal/cluster"
	"espresso/internal/core"
	"espresso/internal/ddl"
	"espresso/internal/jobspec"
	"espresso/internal/logx"
	"espresso/internal/netsim"
	"espresso/internal/obs"
	"espresso/internal/obs/analyze"
	"espresso/internal/serve"
	"espresso/internal/timeline"
)

// log carries the CLI's structured stderr diagnostics; built in main
// from the shared -log-level/-log-json flags.
var log *slog.Logger

func main() {
	var (
		system     = flag.String("system", "espresso", "espresso|fp32|hipress|hitopkcomm|bytepscompress")
		iters      = flag.Int("iters", 2, "iterations to execute on the data plane")
		scale      = flag.Int("scale", 4096, "elements per simulated tensor on the data plane")
		gantt      = flag.Bool("gantt", true, "print the derived timeline")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON file of the derived timeline")
		metrOut    = flag.String("metrics-out", "", "write a metrics-registry JSON file")
		analyzeOut = flag.String("analyze-out", "", "write an iteration-profile JSON (critical path, device stats, phase breakdown)")
		chaosF     = flag.String("chaos", "", "fault-injection plan JSON; iterations run against the faulted network with retry/timeout recovery")
		chaosOut   = flag.String("chaos-report", "", "write the chaos run report JSON (requires -chaos)")
		chaosDet   = flag.Bool("deterministic", false, "zero wall-clock fields in the chaos report so same-seed reruns are byte-identical")
		listen     = flag.String("listen", "", "serve /metrics, /healthz, and /debug/pprof on this address during the run (e.g. 127.0.0.1:9090)")
	)
	jf := jobspec.Flags{Model: "lstm", Cluster: "nvlink", Machines: 2, GPUs: 2, Algo: "dgc", Ratio: 0.01,
		JobFlag: true, ParallelFlag: true, Parallel: 1, ExplainFlag: true}
	jf.Register(nil)
	flag.Lookup("gpus").Usage = "GPUs per machine (kept small: the data plane moves real bytes)"
	flag.Lookup("job").Usage = "job-description JSON (overrides -model/-cluster/-machines/-gpus/-algo/-ratio)"
	log = logx.ParseFlags()

	job, err := jf.Job()
	if err != nil {
		fatal(err)
	}
	r, err := job.Resolve()
	if err != nil {
		fatal(err)
	}
	m, c, spec, cm := r.Model, r.Cluster, r.Spec, r.Costs

	// Telemetry sinks, active when either output flag is set. The
	// analyzer consumes the span stream too, so -analyze-out implies a
	// trace.
	var (
		trace   *obs.Trace
		metrics *obs.Metrics
	)
	if *traceOut != "" || *analyzeOut != "" {
		trace = obs.NewTrace()
	}
	if *traceOut != "" || *metrOut != "" || *listen != "" {
		metrics = obs.NewMetrics()
	}
	if *listen != "" {
		defer logx.Listen(log, *listen, serve.ObsHandler(metrics, nil)).Close()
	}

	// Pick the strategy.
	s, rep, err := r.Strategy(*system, metrics)
	if err != nil {
		fatal(err)
	}
	if rep != nil {
		fmt.Printf("selected strategy in %v: %d/%d tensors compressed, %d offloaded\n",
			rep.SelectionTime, rep.Compressed, m.NumTensors(), rep.Offloaded)
		if len(rep.Decisions) > 0 {
			core.WriteDecisions(os.Stdout, rep.Decisions)
		}
	}

	// Derive the timeline.
	eng := timeline.New(m, c, cm)
	res, err := eng.Evaluate(s)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("predicted iteration time: %v (throughput %.0f %s/s)\n",
		res.Iter, core.Throughput(m, c, res.Iter), m.BatchUnit)
	if trace != nil || metrics != nil {
		if err := eng.Observe(trace, metrics, res, s); err != nil {
			fatal(err)
		}
	}
	// Snapshot the engine's spans for the analyzer now: the netsim
	// cross-check below overlays link spans on the trace that are a
	// diagnostic, not part of the iteration, and must not enter the
	// critical path.
	var analyzeSpans []obs.Span
	if *analyzeOut != "" {
		analyzeSpans = trace.Spans()
	}
	if metrics != nil {
		// Message-level cross-check of the closed-form inter-machine cost:
		// a ring allreduce of the full gradient through netsim yields link
		// utilization the α–β models cannot express.
		if c.Machines > 1 {
			nw := netsim.MustNew(c.Machines, 5*time.Microsecond, c.InterBandwidth)
			nw.RingAllreduce(m.TotalBytes())
			nw.Observe(trace, metrics, obs.PhaseLink)
		}
	}

	// Fault injection: iterations replay their inter-machine phases on a
	// faulted message-level network, with the degradation monitor armed.
	var runner *chaos.Runner
	if *chaosF != "" {
		plan, err := chaos.Load(*chaosF)
		if err != nil {
			fatal(err)
		}
		if runner, err = chaos.NewRunner(m, c, spec, s, plan); err != nil {
			fatal(err)
		}
		runner.Parallelism, runner.Explain = job.Parallelism, job.Explain
		runner.Trace = trace
		runner.Metrics = metrics
		runner.Deterministic = *chaosDet
	}

	// Execute the data plane with scaled-down tensors: per-GPU random
	// gradients move through the real compression/collective stack.
	newExecutor := func(c *cluster.Cluster) *ddl.Executor {
		x, err := ddl.NewExecutor(c, spec)
		if err != nil {
			fatal(err)
		}
		x.Metrics = metrics
		if runner != nil {
			x.Wire = runner.WireConfig()
		}
		return x
	}
	x := newExecutor(c)
	rng := rand.New(rand.NewSource(1))
	dataC := c
	// Every tensor's gradients are drawn into the same buffers, one per
	// GPU, replaced only when the membership changes.
	grads := newGrads(dataC.TotalGPUs(), *scale)
	seenEvents := 0
	for it := 0; it < *iters; it++ {
		if runner != nil {
			sample, err := runner.RunIteration(it)
			if err != nil {
				writeChaosReport(runner, *chaosOut)
				fatal(err)
			}
			tag := ""
			if sample.Breach {
				tag = " [breach]"
			}
			fmt.Printf("chaos iteration %d: predicted %v observed %v (%d drops, %d retransmits)%s\n",
				it, sample.Predicted, sample.Observed, sample.Drops, sample.Retransmits, tag)
			if rs := runner.Report().Reselected; rs != nil && rs.Iteration == it {
				fmt.Printf("degradation tripped at iteration %d (inter bandwidth at %.0f%%): re-selected %v -> %v (%.1f%% better, adopted=%v)\n",
					it, 100*rs.InterScale, rs.Before, rs.After, 100*rs.Improvement, rs.Adopted)
				fmt.Printf("  shape before: %s\n  shape after:  %s\n", rs.BeforeShape, rs.AfterShape)
				if len(rs.Decisions) > 0 {
					core.WriteDecisions(os.Stdout, rs.Decisions)
				}
				s = runner.Strategy // data plane follows the adopted strategy
			}
			// Elastic membership: when the runner reconfigured, rebuild the
			// data plane on the surviving topology and follow the (possibly
			// re-selected) strategy.
			if events := runner.Report().Membership; len(events) > seenEvents {
				for _, ev := range events[seenEvents:] {
					ev.WriteText(os.Stdout)
				}
				seenEvents = len(events)
				dataC = runner.ActiveCluster()
				x = newExecutor(dataC)
				grads = newGrads(dataC.TotalGPUs(), *scale)
				s = runner.Strategy
			}
		}
		for ti := range m.Tensors {
			for _, grad := range grads {
				for j := range grad {
					grad[j] = float32(rng.NormFloat64())
				}
			}
			out, err := x.SyncTensor(m.Tensors[ti].Name, grads, s.PerTensor[ti], uint64(it))
			if err != nil {
				fatal(fmt.Errorf("iteration %d tensor %s: %w", it, m.Tensors[ti].Name, err))
			}
			for g := 1; g < len(out); g++ {
				for j := range out[g] {
					if out[g][j] != out[0][j] {
						fatal(fmt.Errorf("iteration %d tensor %s: GPUs 0 and %d disagree at element %d",
							it, m.Tensors[ti].Name, g, j))
					}
				}
			}
		}
		fmt.Printf("iteration %d: %d tensors synchronized, all %d GPUs agree\n",
			it, m.NumTensors(), len(grads))
	}

	if *gantt {
		fmt.Println("\nderived timeline:")
		fmt.Print(res.Gantt())
	}

	if *traceOut != "" {
		if err := logx.WriteFile(*traceOut, trace.WriteChrome); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote Chrome trace (%d spans) to %s — open in ui.perfetto.dev\n", trace.Len(), *traceOut)
	}
	if *analyzeOut != "" {
		p, err := analyze.Analyze(analyzeSpans, analyze.Options{Forward: m.Forward, Rank: -1})
		if err != nil {
			fatal(err)
		}
		if err := logx.WriteFile(*analyzeOut, p.WriteJSON); err != nil {
			fatal(err)
		}
		if dom, ok := p.Critical.Dominant(); ok {
			fmt.Printf("wrote iteration profile to %s — dominant phase %s (%.1f%% of the iteration)\n",
				*analyzeOut, dom.PhaseS, 100*float64(dom.Total())/float64(p.Iter))
		} else {
			fmt.Printf("wrote iteration profile to %s\n", *analyzeOut)
		}
	}
	if runner != nil {
		writeChaosReport(runner, *chaosOut)
	}
	if *metrOut != "" {
		tr := x.Traffic()
		metrics.Gauge("ddl.traffic.intra.raw_bytes").Set(float64(tr.Intra.RawBytes))
		metrics.Gauge("ddl.traffic.intra.compressed_bytes").Set(float64(tr.Intra.CompressedBytes))
		metrics.Gauge("ddl.traffic.inter.raw_bytes").Set(float64(tr.Inter.RawBytes))
		metrics.Gauge("ddl.traffic.inter.compressed_bytes").Set(float64(tr.Inter.CompressedBytes))
		if err := logx.WriteFile(*metrOut, metrics.WriteJSON); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote metrics to %s\n", *metrOut)
	}
}

// writeChaosReport writes the chaos run report when requested; it is
// also invoked on the error path so an aborted run leaves evidence.
func writeChaosReport(runner *chaos.Runner, path string) {
	if path == "" {
		return
	}
	if err := runner.Report().WriteJSON(path); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote chaos report to %s\n", path)
}

func fatal(err error) {
	logx.Fatal(log, err.Error())
}

// newGrads allocates one n-element gradient buffer per GPU.
func newGrads(gpus, n int) [][]float32 {
	grads := make([][]float32, gpus)
	for g := range grads {
		grads[g] = make([]float32, n)
	}
	return grads
}
