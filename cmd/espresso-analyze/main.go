// Command espresso-analyze answers "why is this iteration slow": it
// turns a span stream — either a Chrome trace-event JSON exported with
// -trace-out elsewhere in this repository, or the derived timeline of a
// job it runs itself — into an iteration profile with per-device
// utilization and bubble accounting, queue-wait distributions, a
// per-phase raw-vs-compressed breakdown, and the critical path through
// the span DAG with each segment attributed to a pipeline phase.
//
//	espresso-analyze -model resnet101 -cluster nvlink -machines 8 -algo dgc
//	espresso-analyze -trace trace.json -top 12
//	espresso-analyze -model vgg16 -explain -analysis-out analysis.json
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"espresso/internal/core"
	"espresso/internal/jobspec"
	"espresso/internal/logx"
	"espresso/internal/obs"
	"espresso/internal/obs/analyze"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
)

// log carries the CLI's structured stderr diagnostics; built in main
// from the shared -log-level/-log-json flags.
var log *slog.Logger

func main() {
	var (
		traceF   = flag.String("trace", "", "analyze a Chrome trace-event JSON file instead of running a job")
		system   = flag.String("system", "espresso", "espresso|fp32|hipress|hitopkcomm|bytepscompress")
		topN     = flag.Int("top", 8, "critical-path segments to list")
		rank     = flag.Int("rank", -1, "rank to walk the critical path on (-1 = the rank owning the last span)")
		analysis = flag.String("analysis-out", "", "write the machine-readable profile JSON here")
		traceOut = flag.String("trace-out", "", "also write the derived timeline as Chrome trace-event JSON (job mode only)")
	)
	jf := jobspec.Flags{Model: "resnet101", Cluster: "nvlink", Machines: 8, Algo: "dgc", Ratio: 0.01,
		ParallelFlag: true, ExplainFlag: true}
	jf.Register(nil)
	log = logx.ParseFlags()

	var (
		spans []obs.Span
		opts  = analyze.Options{Rank: *rank}
		iter  time.Duration // engine-predicted iteration time, when known
		rep   *core.Report
	)
	if *traceF != "" {
		f, err := os.Open(*traceF)
		if err != nil {
			fatal(err)
		}
		spans, err = obs.ReadChrome(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if len(spans) == 0 {
			fatal(fmt.Errorf("%s holds no complete events", *traceF))
		}
		fmt.Printf("loaded %d spans from %s\n", len(spans), *traceF)
	} else {
		job, err := jf.Job()
		if err != nil {
			fatal(err)
		}
		r, err := job.Resolve()
		if err != nil {
			fatal(err)
		}
		m, c, cm := r.Model, r.Cluster, r.Costs
		var s *strategy.Strategy
		if s, rep, err = r.Strategy(*system, nil); err != nil {
			fatal(err)
		}
		if rep != nil {
			fmt.Printf("selected strategy in %v: %d/%d tensors compressed, %d offloaded, %d ruled out\n",
				rep.SelectionTime, rep.Compressed, m.NumTensors(), rep.Offloaded, rep.Ruled)
		}

		eng := timeline.New(m, c, cm)
		res, err := eng.Evaluate(s)
		if err != nil {
			fatal(err)
		}
		iter = res.Iter
		trace := obs.NewTrace()
		if err := eng.Observe(trace, nil, res, s); err != nil {
			fatal(err)
		}
		spans = trace.Spans()
		opts.Forward = m.Forward
		if *traceOut != "" {
			if err := logx.WriteFile(*traceOut, trace.WriteChrome); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote Chrome trace (%d spans) to %s — open in ui.perfetto.dev\n", trace.Len(), *traceOut)
		}
	}

	p, err := analyze.Analyze(spans, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Println()
	if err := p.WriteText(os.Stdout, *topN); err != nil {
		fatal(err)
	}
	if iter > 0 {
		diff := p.Critical.Total - iter
		if diff < 0 {
			diff = -diff
		}
		fmt.Printf("\ncritical path covers %.2f%% of the engine-predicted iteration (%v path vs %v predicted)\n",
			100*float64(p.Critical.Total)/float64(iter), p.Critical.Total, iter)
		if float64(diff) > 0.01*float64(iter) {
			fmt.Println("warning: critical path diverges from the prediction by more than 1%")
		}
	}

	if rep != nil && len(rep.Decisions) > 0 {
		fmt.Println()
		core.WriteDecisions(os.Stdout, rep.Decisions)
	}

	if *analysis != "" {
		if err := logx.WriteFile(*analysis, p.WriteJSON); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote analysis to %s\n", *analysis)
	}
}

func fatal(err error) {
	logx.Fatal(log, err.Error())
}
