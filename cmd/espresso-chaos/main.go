// Command espresso-chaos has two modes.
//
// Severity sweep (default): it selects the healthy-topology Espresso
// strategy once, then for each severity (bandwidth divisor) re-runs
// selection on the degraded topology, warm-started from the healthy
// incumbent, and reports the predicted iteration time before/after and
// the strategy's communication shape. The shape column surfaces the
// flat<->hierarchical crossover: as the inter-machine link degrades, the
// optimum migrates between single-phase flat collectives and two-level
// hierarchical ones.
//
//	espresso-chaos -model lstm -cluster nvlink -machines 4 -severities 1,2,4,8,16
//
// Plan execution (-plan): it loads a fault-injection plan (including
// elastic leave/join membership events), selects the healthy strategy,
// and runs iterations against the faulted network — reconfiguring
// through membership changes per the plan's degradation policy — then
// writes the full run report.
//
//	espresso-chaos -plan configs/chaos-elastic.json -iters 8 -report report.json -deterministic
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"

	"espresso/internal/chaos"
	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/jobspec"
	"espresso/internal/logx"
	"espresso/internal/model"
	"espresso/internal/strategy"
)

type sweepRow struct {
	Severity    float64            `json:"severity"`
	InterScale  float64            `json:"inter_scale"`
	Reselection *chaos.Reselection `json:"reselection"`
}

// log carries the CLI's structured stderr diagnostics; built in main
// from the shared -log-level/-log-json flags.
var log *slog.Logger

func main() {
	var (
		severities = flag.String("severities", "1,2,4,8,16", "comma-separated straggler severities (inter bandwidth divisors)")
		jsonOut    = flag.String("json-out", "", "write the sweep rows as JSON")
		planF      = flag.String("plan", "", "fault-injection plan JSON; runs iterations against the faulted network instead of sweeping severities")
		iters      = flag.Int("iters", 8, "iterations to run in plan mode")
		reportF    = flag.String("report", "", "write the plan-mode run report JSON")
		determin   = flag.Bool("deterministic", false, "zero wall-clock fields in the report so same-seed reruns are byte-identical")
		policyF    = flag.String("policy", "", "override the plan's degradation policy (reselect, continue-degraded, abort-after-n-failures)")
	)
	jf := jobspec.Flags{Model: "lstm", Cluster: "nvlink", Machines: 4, Algo: "dgc", Ratio: 0.01, ParallelFlag: true}
	jf.Register(nil)
	log = logx.ParseFlags()

	job, err := jf.Job()
	if err != nil {
		fatal(err)
	}
	r, err := job.Resolve()
	if err != nil {
		fatal(err)
	}
	m, c, spec := r.Model, r.Cluster, r.Spec

	// The healthy incumbent, selected once.
	healthy, rep, err := r.Strategy(jobspec.Espresso, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("healthy strategy: iteration %v, shape %s\n\n", rep.Iter, chaos.ShapeOf(healthy))

	if *planF != "" {
		runPlan(m, c, spec, healthy, *planF, *iters, *reportF, *determin, *policyF, job.Parallelism)
		return
	}

	var rows []sweepRow
	fmt.Printf("%-9s %-14s %-14s %-8s %-28s %s\n",
		"severity", "incumbent", "re-selected", "gain", "shape after", "adopted")
	for _, tok := range strings.Split(*severities, ",") {
		sev, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil || sev < 1 {
			fatal(fmt.Errorf("bad severity %q (want >= 1)", tok))
		}
		_, rs, err := chaos.Reselect(m, c, spec, healthy, chaos.ReselectOptions{
			InterScale:  1 / sev,
			Parallelism: job.Parallelism,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-9.3g %-14v %-14v %-8s %-28s %v\n",
			sev, rs.Before.D(), rs.After.D(),
			fmt.Sprintf("%.1f%%", 100*rs.Improvement), rs.AfterShape, rs.Adopted)
		rows = append(rows, sweepRow{Severity: sev, InterScale: 1 / sev, Reselection: rs})
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote sweep to %s\n", *jsonOut)
	}
}

// runPlan executes a fault-injection plan end to end: iterations replay
// on the faulted network, membership changes reconfigure per the plan's
// policy, and the full report (samples, membership events, fault
// statistics) is printed and optionally written.
func runPlan(m *model.Model, c *cluster.Cluster, spec compress.Spec, s *strategy.Strategy,
	planPath string, iters int, reportPath string, deterministic bool, policy string, workers int) {
	plan, err := chaos.Load(planPath)
	if err != nil {
		fatal(err)
	}
	if policy != "" {
		plan.Reconfig.Policy = chaos.Policy(policy)
		if err := plan.Validate(); err != nil {
			fatal(err)
		}
	}
	runner, err := chaos.NewRunner(m, c, spec, s, plan)
	if err != nil {
		fatal(err)
	}
	runner.Parallelism = workers
	runner.Deterministic = deterministic

	writeReport := func() {
		if reportPath == "" {
			return
		}
		if err := runner.Report().WriteJSON(reportPath); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote report to %s\n", reportPath)
	}
	seen := 0
	for it := 0; it < iters; it++ {
		sample, err := runner.RunIteration(it)
		if err != nil {
			writeReport()
			fatal(err)
		}
		tag := ""
		if sample.Breach {
			tag = " [breach]"
		}
		fmt.Printf("iteration %d: %d machines, predicted %v observed %v%s\n",
			it, sample.Members, sample.Predicted, sample.Observed, tag)
		for _, ev := range runner.Report().Membership[seen:] {
			ev.WriteText(os.Stdout)
			seen++
		}
	}
	final := runner.Report()
	fmt.Printf("\nrun complete: %d iterations, %d membership events, %d drops, %d member failures\n",
		len(final.Samples), len(final.Membership), final.Net.Dropped, final.Net.MemberFailures)
	writeReport()
}

func fatal(err error) {
	logx.Fatal(log, err.Error())
}
