// Command espresso-trace runs the offline profiling stage (§4.3): it
// collects simulated execution traces for a model (100-iteration
// averaging), prints its tensor-size census, and measures the real
// wall-clock compression profile of this library's algorithms on the
// current host.
//
//	espresso-trace -model bert-base -algo efsignsgd -reps 20
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"time"

	"espresso/internal/compress"
	"espresso/internal/logx"
	"espresso/internal/model"
	"espresso/internal/obs"
	"espresso/internal/trace"
)

// log carries the CLI's structured stderr diagnostics; built in main
// from the shared -log-level/-log-json flags.
var log *slog.Logger

func main() {
	var (
		modelF   = flag.String("model", "bert-base", "model preset")
		algo     = flag.String("algo", "efsignsgd", "GC algorithm to profile")
		ratio    = flag.Float64("ratio", 0.01, "sparsifier ratio")
		iters    = flag.Int("iters", 100, "trace iterations (the paper uses 100)")
		jitter   = flag.Float64("jitter", 0.03, "simulated per-iteration measurement noise")
		reps     = flag.Int("reps", 10, "compression profiling repetitions per size")
		traceOut = flag.String("trace-out", "", "write the averaged backward pass as Chrome trace-event JSON")
		metrOut  = flag.String("metrics-out", "", "write profiling metrics as JSON")
	)
	log = logx.ParseFlags()

	m, err := model.ByName(*modelF)
	if err != nil {
		fatal(err)
	}

	stats := trace.CollectCompute(m, *iters, *jitter, 1)
	fmt.Printf("traced %s over %d iterations (noise ±%.0f%%):\n", m.Name, *iters, 100**jitter)
	var worst float64
	for _, s := range stats {
		if s.RelStdDev() > worst {
			worst = s.RelStdDev()
		}
	}
	fmt.Printf("  %d tensors, total backward %v, worst rel. stddev %.2f%%\n",
		len(stats), m.Backward().Round(time.Microsecond), 100*worst)

	fmt.Printf("\ntensor-size census (Figure 11):\n")
	for _, sc := range trace.SizeCensus(m) {
		fmt.Printf("  %12d elems x %d tensors\n", sc.Elems, sc.Count)
	}

	id, err := compress.ParseID(*algo)
	if err != nil {
		fatal(err)
	}
	spec := compress.Spec{ID: id, Ratio: *ratio}
	sizes := []int{1 << 12, 1 << 16, 1 << 20, 1 << 22}
	samples, err := trace.ProfileCompression(spec, sizes, *reps)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nhost compression profile for %s (%d reps each):\n", spec, *reps)
	fmt.Printf("  %10s %14s %14s %12s\n", "elems", "compress", "decompress", "wire bytes")
	for _, s := range samples {
		fmt.Printf("  %10d %14v %14v %12d\n", s.Elems,
			s.Compress.Round(time.Microsecond), s.Decompress.Round(time.Microsecond), s.WireBytes)
	}

	if *traceOut != "" {
		tr := obs.NewTrace()
		// The averaged backward pass as one GPU track: tensors execute
		// back to back in backward order at their mean computation times.
		var clock time.Duration
		for ti, t := range m.Tensors {
			tr.Record(obs.Span{
				Rank: 0, Device: "gpu", Phase: obs.PhaseCompute,
				Name:  fmt.Sprintf("T%d %s", ti, t.Name),
				Ready: clock, Start: clock, End: clock + t.Compute,
				Bytes: 4 * int64(t.Elems),
			})
			clock += t.Compute
		}
		if err := logx.WriteFile(*traceOut, tr.WriteChrome); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote backward-pass trace (%d spans) to %s\n", tr.Len(), *traceOut)
	}
	if *metrOut != "" {
		mx := obs.NewMetrics()
		mx.Gauge("trace.tensors").Set(float64(len(stats)))
		mx.Gauge("trace.backward_us").Set(float64(m.Backward().Microseconds()))
		for _, s := range stats {
			mx.Histogram("trace.compute_us").Observe(float64(s.Mean.Microseconds()))
			mx.Histogram("trace.rel_stddev", obs.RatioBuckets...).Observe(s.RelStdDev())
		}
		for _, s := range samples {
			mx.Gauge(fmt.Sprintf("profile.compress_us.%d", s.Elems)).Set(float64(s.Compress.Microseconds()))
			mx.Gauge(fmt.Sprintf("profile.decompress_us.%d", s.Elems)).Set(float64(s.Decompress.Microseconds()))
			mx.Gauge(fmt.Sprintf("profile.wire_bytes.%d", s.Elems)).Set(float64(s.WireBytes))
			if dense := 4 * s.Elems; dense > 0 {
				mx.Histogram("profile.ratio", obs.RatioBuckets...).
					Observe(float64(s.WireBytes) / float64(dense))
			}
		}
		if err := logx.WriteFile(*metrOut, mx.WriteJSON); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote profiling metrics to %s\n", *metrOut)
	}
}

func fatal(err error) {
	logx.Fatal(log, err.Error())
}
