package espresso

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each Benchmark
// corresponds to one table/figure per DESIGN.md's experiment index;
// headline values are emitted as benchmark metrics, and each run logs the
// rendered table so the bench output doubles as the reproduction record.

import (
	"testing"
	"time"

	"espresso/internal/baselines"
	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/core"
	"espresso/internal/cost"
	"espresso/internal/experiments"
	"espresso/internal/model"
	"espresso/internal/par"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
)

func BenchmarkTable1ScalingFactors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.RenderTable1(rows))
			for _, r := range rows {
				b.ReportMetric(r.FP32, r.Model+"_fp32_sf")
			}
		}
	}
}

func BenchmarkTable5SelectionTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table5()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.RenderTable5(rows))
			for _, r := range rows {
				b.ReportMetric(r.Selection.Seconds()*1000, r.Model+"_select_ms")
			}
		}
	}
}

// BenchmarkTable5SelectionTimeParallel is Table 5 with the strategy
// searches fanned out over one worker per CPU. Compare against
// BenchmarkTable5SelectionTime for the parallel-search speedup; the
// rendered rows are identical by construction.
func BenchmarkTable5SelectionTimeParallel(b *testing.B) {
	experiments.SetParallelism(0)
	defer experiments.SetParallelism(1)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table5()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("workers=%d\n%s", par.Workers(0), experiments.RenderTable5(rows))
			for _, r := range rows {
				b.ReportMetric(r.Selection.Seconds()*1000, r.Model+"_select_ms")
			}
		}
	}
}

func BenchmarkTable6OffloadTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table6()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.RenderTable6(rows))
		}
	}
}

func BenchmarkFig10BenefitRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.RenderFig10(pts))
			b.ReportMetric(pts[len(pts)-1].Benefit, "benefit_at_256MB")
		}
	}
}

func BenchmarkFig11SizeCensus(b *testing.B) {
	var distinct int
	for i := 0; i < b.N; i++ {
		census := experiments.Fig11()
		distinct = len(census)
		if i == 0 {
			b.Logf("\n%s", experiments.RenderFig11(census))
		}
	}
	b.ReportMetric(float64(distinct), "distinct_sizes")
}

func benchThroughputFigure(b *testing.B, run func() ([]*experiments.Throughput, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		panels, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if i != 0 {
			continue
		}
		for _, p := range panels {
			b.Logf("\n%s", experiments.RenderThroughput(p))
			last := len(p.GPUs) - 1
			esp := p.Series[experiments.SysEspresso][last]
			fp := p.Series[experiments.SysFP32][last]
			hp := p.Series[experiments.SysHiPress][last]
			b.ReportMetric(esp/fp, p.Combo+"_vs_fp32")
			b.ReportMetric(esp/hp, p.Combo+"_vs_hipress")
		}
	}
}

func BenchmarkFig12NVLink(b *testing.B) { benchThroughputFigure(b, experiments.Fig12) }
func BenchmarkFig13PCIe(b *testing.B)   { benchThroughputFigure(b, experiments.Fig13) }

func BenchmarkFig14CDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, tb := range []experiments.Testbed{experiments.NVLink, experiments.PCIe} {
			pts, err := experiments.Fig14(tb)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("%s:\n%s", tb.Name, experiments.RenderFig14(pts))
				cdf := experiments.CDF(pts)
				esp := cdf[experiments.SysEspresso]
				b.ReportMetric(esp[len(esp)-1], "espresso_max_diff_pct_"+tb.Name)
			}
		}
	}
}

func BenchmarkFig15Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig15()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.RenderFig15(rows))
		}
	}
}

func BenchmarkFig16Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig16()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.RenderFig16(rows))
			for _, r := range rows {
				b.ReportMetric(r.GCAcc-r.FP32Acc, r.Algo+"_acc_delta")
				b.ReportMetric(r.Speedup, r.Algo+"_speedup")
			}
		}
	}
}

// --- microbenchmarks of the core machinery ---

func BenchmarkOptionEnumeration(b *testing.B) {
	c := cluster.NVLinkTestbed(8)
	var n int
	for i := 0; i < b.N; i++ {
		n = len(strategy.Enumerate(c))
	}
	b.ReportMetric(float64(n), "options")
}

func BenchmarkTimelineDerivation(b *testing.B) {
	c := cluster.NVLinkTestbed(8)
	m := model.ResNet101()
	cm := cost.MustModels(c, compress.Spec{ID: compress.DGC, Ratio: 0.01})
	eng := timeline.New(m, c, cm)
	eng.RecordOps = false
	s := strategy.Uniform(len(m.Tensors), strategy.NoCompression(c))
	if err := eng.Prepare(s); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectionBERT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := Select(Job{
			Model:     ModelSpec{Preset: "bert-base"},
			Cluster:   ClusterSpec{Preset: "nvlink", Machines: 8},
			Algorithm: AlgorithmSpec{Name: "randomk", Ratio: 0.01},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectionBERTParallel is the same search with one worker per
// CPU; the selected strategy is identical to BenchmarkSelectionBERT's.
func BenchmarkSelectionBERTParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := Select(Job{
			Model:       ModelSpec{Preset: "bert-base"},
			Cluster:     ClusterSpec{Preset: "nvlink", Machines: 8},
			Algorithm:   AlgorithmSpec{Name: "randomk", Ratio: 0.01},
			Parallelism: -1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches for Espresso's design choices (DESIGN.md) ---

// ablationSelect runs Select with a tweak applied to the selector and
// reports the resulting iteration time in milliseconds.
func ablationSelect(b *testing.B, name string, tweak func(*core.Selector)) {
	b.Helper()
	m := model.LSTM()
	c := cluster.PCIeTestbed(8)
	cm := cost.MustModels(c, compress.Spec{ID: compress.EFSignSGD})
	var iter time.Duration
	for i := 0; i < b.N; i++ {
		sel := core.NewSelector(m, c, cm)
		if tweak != nil {
			tweak(sel)
		}
		_, rep, err := sel.Select()
		if err != nil {
			b.Fatal(err)
		}
		iter = rep.Iter
	}
	b.ReportMetric(iter.Seconds()*1000, name+"_iter_ms")
}

func BenchmarkAblationFull(b *testing.B) {
	ablationSelect(b, "full", nil)
}

// Property #1: bubble-based elimination.
func BenchmarkAblationNoBubbleAnalysis(b *testing.B) {
	ablationSelect(b, "no_bubbles", func(sel *core.Selector) { sel.SkipBubbleAnalysis = true })
}

// Property #2: size-then-position prioritization.
func BenchmarkAblationNaiveOrder(b *testing.B) {
	ablationSelect(b, "naive_order", func(sel *core.Selector) { sel.NaiveOrder = true })
}

// Property #3: overhead-driven decisions vs wall-clock-driven (myopic).
func BenchmarkAblationMyopicObjective(b *testing.B) {
	m := model.LSTM()
	c := cluster.PCIeTestbed(8)
	cm := cost.MustModels(c, compress.Spec{ID: compress.EFSignSGD})
	eng := timeline.New(m, c, cm)
	eng.RecordOps = false
	var iter time.Duration
	for i := 0; i < b.N; i++ {
		opts := strategy.Filter(strategy.EnumerateGPU(c), strategy.Option.Compressed)
		_, s, err := baselines.Selective(timeline.New(m, c, cm), strategy.NoCompression(c), opts)
		if err != nil {
			b.Fatal(err)
		}
		if iter, err = eng.IterTime(s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(iter.Seconds()*1000, "myopic_iter_ms")
}

// Lemma 1 grouping: Algorithm 2's grouped search vs no offloading at all.
func BenchmarkAblationNoOffload(b *testing.B) {
	m := model.LSTM()
	c := cluster.PCIeTestbed(8)
	cm := cost.MustModels(c, compress.Spec{ID: compress.EFSignSGD})
	eng := timeline.New(m, c, cm)
	eng.RecordOps = false
	var iter time.Duration
	for i := 0; i < b.N; i++ {
		sel := core.NewSelector(m, c, cm)
		sel.SetDevices([]cost.Device{cost.GPU})
		_, rep, err := sel.Select()
		if err != nil {
			b.Fatal(err)
		}
		iter = rep.Iter
		_ = eng
	}
	b.ReportMetric(iter.Seconds()*1000, "no_offload_iter_ms")
}
