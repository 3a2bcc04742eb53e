// Command espresso-verify runs the differential correctness harness:
// hundreds of randomly generated (model, cluster, compressor) cases
// checked against the closed-form α–β oracle, selector baselines,
// metamorphic invariants, and exhaustive offload/brute-force references.
//
//	espresso-verify -cases 200 -seed 1
//
// Every failure prints the reproducing seed; replay a single case with
//
//	espresso-verify -cases 1 -seed <seed> -v
//
// The process exits 0 only when every assertion holds.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"espresso/internal/logx"
	"espresso/internal/obs"
	"espresso/internal/oracle/diff"
)

// log carries the CLI's structured stderr diagnostics; built in main
// from the shared -log-level/-log-json flags.
var log *slog.Logger

func main() {
	var (
		cases    = flag.Int("cases", 200, "generated cases to run")
		seed     = flag.Uint64("seed", 1, "base seed; case i uses seed+i")
		relTol   = flag.Float64("rel-tol", 0, "oracle-vs-engine relative tolerance (0 = default)")
		absTol   = flag.Duration("abs-tol", 0, "oracle-vs-engine absolute tolerance (0 = default)")
		greedy   = flag.Float64("greedy-gap", 0, "allowed greedy gap over brute force (0 = default)")
		verbose  = flag.Bool("v", false, "print progress lines")
		failFast = flag.Bool("fail-fast", false, "stop after the first failing case")
		listen   = flag.String("listen", "", "serve /metrics, /healthz, and /debug/pprof on this address during the run (e.g. 127.0.0.1:9090)")
	)
	log = logx.ParseFlags()

	if *listen != "" {
		defer logx.Listen(log, *listen, obs.NewMetrics()).Close()
	}

	cfg := diff.Config{
		Cases:     *cases,
		Seed:      *seed,
		RelTol:    *relTol,
		AbsTol:    *absTol,
		GreedyGap: *greedy,
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			log.Info(fmt.Sprintf(format, args...))
		}
	}

	start := time.Now()
	var sum *diff.Summary
	if *failFast {
		sum = runFailFast(cfg)
	} else {
		var err error
		sum, err = diff.Run(cfg)
		if err != nil {
			log.Error("differential run failed", "err", err)
			os.Exit(2)
		}
	}

	fmt.Print(sum.String())
	fmt.Printf("elapsed: %v\n", time.Since(start).Round(time.Millisecond))
	for _, f := range sum.Failures {
		fmt.Println(f)
	}
	if !sum.Passed() {
		os.Exit(1)
	}
	fmt.Println("PASS")
}

// runFailFast runs one case at a time so a debugging session stops at
// the first violated assertion.
func runFailFast(cfg diff.Config) *diff.Summary {
	total := &diff.Summary{Checks: map[string]int{}}
	for i := 0; i < cfg.Cases; i++ {
		one := cfg
		one.Cases = 1
		one.Seed = cfg.Seed + uint64(i)
		sum, err := diff.Run(one)
		if err != nil {
			log.Error("differential run failed", "seed", one.Seed, "err", err)
			os.Exit(2)
		}
		total.Cases++
		for k, v := range sum.Checks {
			total.Checks[k] += v
		}
		total.Failures = append(total.Failures, sum.Failures...)
		if len(total.Failures) > 0 {
			break
		}
	}
	return total
}
