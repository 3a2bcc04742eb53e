// Command espresso-bench regenerates the tables and figures of the
// paper's evaluation section on the simulated substrate.
//
//	espresso-bench -experiment table1
//	espresso-bench -experiment fig12
//	espresso-bench -experiment all
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"time"

	"espresso/internal/experiments"
	"espresso/internal/logx"
	"espresso/internal/obs"
)

var runners = map[string]func() (string, error){
	"table1": func() (string, error) {
		rows, err := experiments.Table1()
		if err != nil {
			return "", err
		}
		return experiments.RenderTable1(rows), nil
	},
	"table5": func() (string, error) {
		rows, err := experiments.Table5()
		if err != nil {
			return "", err
		}
		return experiments.RenderTable5(rows), nil
	},
	"table6": func() (string, error) {
		rows, err := experiments.Table6()
		if err != nil {
			return "", err
		}
		return experiments.RenderTable6(rows), nil
	},
	"fig10": func() (string, error) {
		pts, err := experiments.Fig10()
		if err != nil {
			return "", err
		}
		return experiments.RenderFig10(pts), nil
	},
	"fig11": func() (string, error) {
		return experiments.RenderFig11(experiments.Fig11()), nil
	},
	"fig12": func() (string, error) {
		return renderPanels(experiments.Fig12())
	},
	"fig13": func() (string, error) {
		return renderPanels(experiments.Fig13())
	},
	"fig14": func() (string, error) {
		var b strings.Builder
		for _, tb := range []experiments.Testbed{experiments.NVLink, experiments.PCIe} {
			pts, err := experiments.Fig14(tb)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%s:\n%s\n", tb.Name, experiments.RenderFig14(pts))
		}
		return b.String(), nil
	},
	"fig15": func() (string, error) {
		rows, err := experiments.Fig15()
		if err != nil {
			return "", err
		}
		return experiments.RenderFig15(rows), nil
	},
	"fig16": func() (string, error) {
		rows, err := experiments.Fig16()
		if err != nil {
			return "", err
		}
		return experiments.RenderFig16(rows), nil
	},
	"traffic": func() (string, error) {
		rows, err := experiments.Traffic()
		if err != nil {
			return "", err
		}
		return experiments.RenderTraffic(rows), nil
	},
	"timelines": func() (string, error) {
		demos, err := experiments.TimelineDemo()
		if err != nil {
			return "", err
		}
		var names []string
		for name := range demos {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "--- %s ---\n%s\n", name, demos[name])
		}
		return b.String(), nil
	},
}

func renderPanels(panels []*experiments.Throughput, err error) (string, error) {
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, p := range panels {
		b.WriteString(experiments.RenderThroughput(p))
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// log carries the CLI's structured stderr diagnostics; built in main
// from the shared -log-level/-log-json flags.
var log *slog.Logger

func main() {
	exp := flag.String("experiment", "all", "table1|table5|table6|fig10|fig11|fig12|fig13|fig14|fig15|fig16|timelines|traffic|all")
	parallel := flag.Int("parallel", 1, "worker count for sweeps and strategy searches (0 = one per CPU); results are identical at any setting")
	listen := flag.String("listen", "", "serve /metrics, /healthz, and /debug/pprof on this address while the experiments run (e.g. 127.0.0.1:9090)")
	log = logx.ParseFlags()
	experiments.SetParallelism(*parallel)

	metrics := obs.NewMetrics()
	if *listen != "" {
		defer logx.Listen(log, *listen, metrics).Close()
	}

	var names []string
	if *exp == "all" {
		for name := range runners {
			names = append(names, name)
		}
		sort.Strings(names)
	} else {
		if _, ok := runners[*exp]; !ok {
			logx.Fatal(log, "unknown experiment", "name", *exp)
		}
		names = []string{*exp}
	}

	for _, name := range names {
		start := time.Now()
		stop := metrics.Timer("bench.experiment.wall_seconds")
		out, err := runners[name]()
		stop()
		if err != nil {
			logx.Fatal(log, "experiment failed", "name", name, "err", err)
		}
		fmt.Printf("===== %s (%v) =====\n%s\n", name, time.Since(start).Round(time.Millisecond), out)
	}
}
