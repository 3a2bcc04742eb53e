package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/core"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
)

// Table1Row is one row of Table 1: scaling factors of a model under no
// compression and naive GC on each device type.
type Table1Row struct {
	Model    string
	Networks string
	FP32     float64
	GCGPU    float64
	GCCPU    float64
}

// Table1 reproduces Table 1: GPT2 and BERT-base on the NVLink testbed,
// LSTM on the PCIe testbed, each with 64 GPUs. Per §3, "GC with GPU"
// compresses with HiPress [9] (selective, GPU) and "GC with CPU" with
// BytePS-Compress [78] (compress-all, CPU); DGC is applied to GPT2 and
// LSTM, EFSignSGD to BERT-base.
func Table1() ([]Table1Row, error) {
	cases := []struct {
		combo Combo
		tb    Testbed
	}{
		{Combo{model.GPT2(), SpecDGC}, NVLink},
		{Combo{model.BERTBase(), SpecEFSignSGD}, NVLink},
		{Combo{model.LSTM(), SpecDGC}, PCIe},
	}
	var rows []Table1Row
	for _, tc := range cases {
		c := tc.tb.Make(8)
		cm, err := cost.NewModels(c, tc.combo.Spec)
		if err != nil {
			return nil, err
		}
		row := Table1Row{Model: tc.combo.Model.Name, Networks: tc.tb.Name}
		for _, entry := range []struct {
			sys System
			dst *float64
		}{
			{SysFP32, &row.FP32},
			{SysHiPress, &row.GCGPU},
			{SysBytePSCompress, &row.GCCPU},
		} {
			iter, err := IterTime(entry.sys, tc.combo.Model, c, cm)
			if err != nil {
				return nil, err
			}
			*entry.dst = core.ScalingFactor(tc.combo.Model, c, iter)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable1 formats Table 1 rows.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-16s %6s %8s %8s\n", "Model", "Networks", "FP32", "GC(GPU)", "GC(CPU)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-16s %6.2f %8.2f %8.2f\n", r.Model, r.Networks, r.FP32, r.GCGPU, r.GCCPU)
	}
	return b.String()
}

// Table5Row is one column of Table 5: strategy-selection time per model.
type Table5Row struct {
	Model     string
	Tensors   int
	Selection time.Duration
	Evals     int
	// BruteForce estimates the exhaustive search: |C|^N strategies at
	// the measured evaluation rate, formatted human-readably ("> 24h").
	BruteForce string
}

// Table5 measures the compression-strategy selection time for every
// benchmark model on the NVLink testbed (the paper notes PCIe results are
// similar), against the estimated brute-force cost of §4.4.1.
func Table5() ([]Table5Row, error) {
	var rows []Table5Row
	for _, m := range model.All() {
		c := NVLink.Make(8)
		cm, err := cost.NewModels(c, SpecDGC)
		if err != nil {
			return nil, err
		}
		// The models run one at a time — each selection parallelizes its
		// own F(S) evaluations, so the per-model wall clocks stay
		// meaningful.
		sel := core.NewSelector(m, c, cm)
		sel.Parallelism = parallelism
		start := time.Now()
		s, rep, err := sel.Select()
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		perEval, err := evalTime(m, c, cm, s)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table5Row{
			Model:      m.Name,
			Tensors:    m.NumTensors(),
			Selection:  elapsed,
			Evals:      rep.Evals,
			BruteForce: bruteEstimateLog10(core.BruteForceSpaceLog10(m, c), perEval),
		})
	}
	return rows, nil
}

// evalTime is the wall clock of one F(S) run of s (mean of 16): what
// brute force, with no incumbent to dismiss a strategy against, pays per
// strategy. Selection time ÷ Report.Evals would understate it — most of
// what Evals counts is judged without a run.
func evalTime(m *model.Model, c *cluster.Cluster, cm *cost.Models, s *strategy.Strategy) (time.Duration, error) {
	eng := timeline.New(m, c, cm)
	eng.RecordOps = false
	if err := eng.Prepare(s); err != nil {
		return 0, err
	}
	const runs = 16
	start := time.Now()
	for i := 0; i < runs; i++ {
		if _, err := eng.Run(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / runs, nil
}

// bruteEstimate renders the brute-force wall-clock estimate for `space`
// strategy evaluations.
func bruteEstimate(space float64, perEval time.Duration) string {
	return bruteEstimateLog10(math.Log10(space), perEval)
}

// bruteEstimateLog10 renders the estimate from log10 of the space size,
// which stays finite even when the count itself overflows float64.
func bruteEstimateLog10(log10Space float64, perEval time.Duration) string {
	logSeconds := log10Space + math.Log10(perEval.Seconds())
	switch {
	case logSeconds > math.Log10(86400):
		return fmt.Sprintf("> 24h (10^%.0f evals)", log10Space)
	case logSeconds > math.Log10(3600):
		return fmt.Sprintf("%.1fh", math.Pow(10, logSeconds)/3600)
	case logSeconds > 0:
		return fmt.Sprintf("%.0fs", math.Pow(10, logSeconds))
	default:
		return fmt.Sprintf("%.0fms", math.Pow(10, logSeconds)*1000)
	}
}

// RenderTable5 formats Table 5 rows.
func RenderTable5(rows []Table5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %9s %12s %9s  %s\n", "Model", "#Tensors", "Espresso", "Evals", "Brute force")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %9d %12s %9d  %s\n", r.Model, r.Tensors, r.Selection.Round(time.Millisecond), r.Evals, r.BruteForce)
	}
	return b.String()
}

// Table6Row is one column of Table 6: CPU-offloading search time.
type Table6Row struct {
	Model string
	// Tensors is |T_gpu|, the tensors eligible for offloading after
	// Algorithm 1.
	Tensors int
	// Search is prod(|G_i|+1), Algorithm 2's grouped space.
	Search  int
	Offload time.Duration
	// BruteForce: measured exactly when 2^|T_gpu| is small, estimated
	// otherwise.
	BruteForce string
}

// Table6 measures the best-CPU-offloading search time per model: Espresso
// explores the grouped space of Theorem 1; brute force explores all
// 2^|T_gpu| subsets.
func Table6() ([]Table6Row, error) {
	var rows []Table6Row
	for _, m := range model.All() {
		c := NVLink.Make(8)
		cm, err := cost.NewModels(c, SpecDGC)
		if err != nil {
			return nil, err
		}
		sel := core.NewSelector(m, c, cm)
		sel.Parallelism = parallelism
		rep := &core.Report{}
		s, err := sel.Algorithm1(rep)
		if err != nil {
			return nil, err
		}
		offRep := &core.Report{}
		start := time.Now()
		if _, err := sel.OffloadCPU(s, offRep); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		perEval, err := evalTime(m, c, cm, s)
		if err != nil {
			return nil, err
		}

		var brute string
		if offRep.OffloadTensors <= 12 {
			brute = measureBruteOffload(m, c, cm, s)
		} else {
			brute = bruteEstimate(math.Pow(2, float64(offRep.OffloadTensors)), perEval)
		}
		rows = append(rows, Table6Row{
			Model:      m.Name,
			Tensors:    offRep.OffloadTensors,
			Search:     offRep.OffloadSearch,
			Offload:    elapsed,
			BruteForce: brute,
		})
	}
	return rows, nil
}

// measureBruteOffload actually enumerates all 2^n device assignments for
// the compressed tensors of s and reports the wall clock.
func measureBruteOffload(m *model.Model, c *cluster.Cluster, cm *cost.Models, s *strategy.Strategy) string {
	var idxs []int
	for i, o := range s.PerTensor {
		if o.Compressed() {
			idxs = append(idxs, i)
		}
	}
	eng := timeline.New(m, c, cm)
	eng.RecordOps = false
	work := s.Clone()
	if err := eng.Prepare(work); err != nil {
		return "error: " + err.Error()
	}
	start := time.Now()
	best := time.Duration(-1)
	for mask := 0; mask < 1<<len(idxs); mask++ {
		for b, i := range idxs {
			dev := cost.GPU
			if mask&(1<<b) != 0 {
				dev = cost.CPU
			}
			if err := eng.SetOption(i, s.PerTensor[i].WithDevice(dev)); err != nil {
				return "error: " + err.Error()
			}
		}
		r, err := eng.Run()
		if err != nil {
			return "error: " + err.Error()
		}
		if best < 0 || r.Iter < best {
			best = r.Iter
		}
	}
	return time.Since(start).Round(time.Millisecond).String()
}

// RenderTable6 formats Table 6 rows.
func RenderTable6(rows []Table6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %9s %9s %12s  %s\n", "Model", "#Tensors", "Search", "Espresso", "Brute force")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %9d %9d %12s  %s\n", r.Model, r.Tensors, r.Search, r.Offload.Round(time.Millisecond), r.BruteForce)
	}
	return b.String()
}
