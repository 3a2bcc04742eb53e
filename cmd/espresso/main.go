// Command espresso selects a near-optimal gradient-compression strategy
// for a DDL training job, following the paper's workflow (Figure 6): the
// job is described by three configuration inputs — model, GC algorithm,
// and training system — given either as one JSON job file or as flags.
//
// Examples:
//
//	espresso -job job.json
//	espresso -model bert-base -cluster nvlink -machines 8 -algo randomk -ratio 0.01
//	espresso -model lstm -cluster pcie -machines 8 -algo efsignsgd -compare
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"

	"espresso"
	"espresso/internal/jobspec"
	"espresso/internal/logx"
)

// log carries the CLI's structured stderr diagnostics; built in main
// from the shared -log-level/-log-json flags.
var log *slog.Logger

func main() {
	var (
		compare = flag.Bool("compare", false, "also evaluate the baseline systems and the upper bound")
		showAll = flag.Bool("decisions", false, "print the per-tensor decisions")
		asJSON  = flag.Bool("json", false, "emit machine-readable JSON")
		export  = flag.String("export", "", "write the selected strategy to this file")
		apply   = flag.String("apply", "", "evaluate a previously exported strategy instead of selecting")
	)
	jf := jobspec.Flags{Model: "bert-base", Cluster: "nvlink", Machines: 8, Algo: "randomk", Ratio: 0.01, JobFlag: true}
	jf.Register(nil)
	flag.Lookup("model").Usage = "model preset (vgg16, resnet101, ugatit, bert-base, gpt2, lstm)"
	flag.Lookup("machines").Usage = "number of GPU machines"
	flag.Lookup("algo").Usage = "GC algorithm (fp32, randomk, dgc, topk, efsignsgd, qsgd, terngrad)"
	flag.Lookup("ratio").Usage = "sparsifier compression ratio"
	log = logx.ParseFlags()

	job, err := jf.Job()
	if err != nil {
		fatal(err)
	}

	var strategy *espresso.Strategy
	var report *espresso.Report
	if *apply != "" {
		buf, err := os.ReadFile(*apply)
		if err != nil {
			fatal(err)
		}
		if strategy, err = espresso.ImportStrategy(job, buf); err != nil {
			fatal(err)
		}
		if report, err = espresso.Predict(job, strategy); err != nil {
			fatal(err)
		}
	} else if strategy, report, err = espresso.Select(job); err != nil {
		fatal(err)
	}
	if *export != "" {
		buf, err := strategy.Export()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*export, buf, 0o644); err != nil {
			fatal(err)
		}
	}

	if *asJSON {
		out := struct {
			Report   *espresso.Report   `json:"report"`
			Strategy *espresso.Strategy `json:"strategy"`
		}{report, strategy}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		return
	}

	modelName := job.Model.Preset
	if modelName == "" {
		modelName = job.Model.Name
	}
	fmt.Printf("Espresso strategy for %s on %s x%d (%s)\n",
		modelName, job.Cluster.Preset, job.Cluster.Machines, job.Algorithm.Name)
	fmt.Printf("  selection time:     %v (%d timeline evaluations)\n", report.SelectionTime, report.Evaluations)
	fmt.Printf("  predicted iteration: %v\n", report.IterTime)
	fmt.Printf("  throughput:          %.0f %s (scaling factor %.2f)\n", report.Throughput, report.Unit, report.ScalingFactor)
	fmt.Printf("  compressed tensors:  %d of %d (%d offloaded to CPUs)\n",
		report.CompressedTensors, len(strategy.Decisions), report.OffloadedTensors)

	if *compare {
		fmt.Println("\nComparison:")
		for _, name := range []espresso.BaselineName{espresso.FP32, espresso.BytePSCompress, espresso.HiTopKComm, espresso.HiPress} {
			_, brep, err := espresso.Baseline(name, job)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("  %-16s %10.0f %s  (Espresso %+.0f%%)\n",
				name, brep.Throughput, brep.Unit, 100*(report.Throughput/brep.Throughput-1))
		}
		ub, err := espresso.UpperBound(job)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  %-16s %10.0f %s  (Espresso within %.1f%%)\n",
			"UpperBound", ub.Throughput, ub.Unit, 100*(1-report.Throughput/ub.Throughput))
	}

	if *showAll {
		fmt.Println("\nPer-tensor decisions (backward order):")
		for _, d := range strategy.Decisions {
			mark := "-"
			if d.Compressed {
				mark = d.Device
			}
			fmt.Printf("  %-32s %10d elems  %-4s  %s\n", d.Tensor, d.Elems, mark, d.Option)
		}
	}
}

func fatal(err error) {
	logx.Fatal(log, err.Error())
}
