package experiments

import (
	"strings"
	"testing"
	"time"

	"espresso/internal/model"
)

// Table 1's shape: FP32 scaling factors sit in the paper's band, and
// naive CPU compression of DGC-class algorithms harms LSTM-class jobs.
func TestTable1Shape(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	byModel := map[string]Table1Row{}
	for _, r := range rows {
		byModel[r.Model] = r
		if r.FP32 <= 0 || r.FP32 > 1.01 {
			t.Errorf("%s: FP32 scaling factor %v out of range", r.Model, r.FP32)
		}
	}
	// GPT2 and BERT train at roughly half of linear scaling without GC
	// (paper: 0.58 and 0.51).
	for _, name := range []string{"gpt2", "bert-base"} {
		if sf := byModel[name].FP32; sf < 0.40 || sf > 0.75 {
			t.Errorf("%s FP32 sf = %.2f, want the paper's ~0.5-0.6 band", name, sf)
		}
	}
	// Table 1's motivating message (§3): naive GC application yields
	// only modest speedups — and harms performance in some cells.
	harms, helps := 0, 0
	for _, r := range rows {
		for _, gc := range []float64{r.GCGPU, r.GCCPU} {
			if gc < r.FP32 {
				harms++
			}
			if gc > r.FP32*1.02 {
				helps++
			}
		}
	}
	if harms == 0 {
		t.Error("no Table 1 cell shows naive GC harming performance (the paper's motivating point)")
	}
	if helps == 0 {
		t.Error("no Table 1 cell shows naive GC helping")
	}
	t.Logf("\n%s", RenderTable1(rows))
}

func TestTable5SelectionIsTractable(t *testing.T) {
	if testing.Short() {
		t.Skip("selection sweep across all models in -short mode")
	}
	rows, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	for _, r := range rows {
		// Milliseconds-to-seconds, never remotely brute-force scale.
		if r.Selection > time.Minute {
			t.Errorf("%s selection took %v", r.Model, r.Selection)
		}
		if !strings.Contains(r.BruteForce, "24h") {
			t.Errorf("%s brute force estimate %q should be intractable", r.Model, r.BruteForce)
		}
	}
	// Selection time grows with tensor count: LSTM (10 tensors) fastest.
	var lstm, resnet Table5Row
	for _, r := range rows {
		switch r.Model {
		case "lstm":
			lstm = r
		case "resnet101":
			resnet = r
		}
	}
	if lstm.Selection >= resnet.Selection {
		t.Errorf("lstm selection %v should be faster than resnet101 %v", lstm.Selection, resnet.Selection)
	}
	t.Logf("\n%s", RenderTable5(rows))
}

func TestTable6OffloadSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("offload sweep across all models in -short mode")
	}
	rows, err := Table6()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Offload > 2*time.Minute {
			t.Errorf("%s offload search took %v", r.Model, r.Offload)
		}
		if r.Tensors > 0 && r.Search <= 0 {
			t.Errorf("%s: no search space reported", r.Model)
		}
	}
	t.Logf("\n%s", RenderTable6(rows))
}

// Figure 10's monotone benefit ratio.
func TestFig10Monotone(t *testing.T) {
	pts, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Benefit <= pts[i-1].Benefit {
			t.Fatalf("benefit ratio not increasing at %d bytes", pts[i].Bytes)
		}
	}
	last := pts[len(pts)-1]
	if last.Benefit <= 1 {
		t.Fatalf("large tensors should clearly benefit: ratio %.2f at %d bytes", last.Benefit, last.Bytes)
	}
	t.Logf("\n%s", RenderFig10(pts))
}

func TestFig11FewDistinctSizes(t *testing.T) {
	census := Fig11()
	if len(census) >= model.BERTBase().NumTensors()/4 {
		t.Fatalf("BERT census has %d distinct sizes", len(census))
	}
	t.Logf("\n%s", RenderFig11(census))
}

// One full panel of Figure 12, trimmed to two cluster sizes: Espresso
// dominates every baseline and throughput grows with GPUs.
func TestThroughputPanelShape(t *testing.T) {
	combo := Combo{model.BERTBase(), SpecRandomK}
	th, err := ThroughputSweep(combo, NVLink, []int{2, 8}, Systems)
	if err != nil {
		t.Fatal(err)
	}
	esp := th.Series[SysEspresso]
	ub := th.Series[SysUpperBound]
	for i := range th.GPUs {
		for _, sys := range []System{SysFP32, SysBytePSCompress, SysHiTopKComm, SysHiPress} {
			if esp[i] < th.Series[sys][i]*0.999 {
				t.Errorf("GPUs=%d: Espresso %.0f below %v %.0f", th.GPUs[i], esp[i], sys, th.Series[sys][i])
			}
		}
		if esp[i] > ub[i]*1.001 {
			t.Errorf("GPUs=%d: Espresso %.0f above upper bound %.0f", th.GPUs[i], esp[i], ub[i])
		}
	}
	if esp[1] <= esp[0] {
		t.Errorf("throughput should grow with cluster size: %v", esp)
	}
	t.Logf("\n%s", RenderThroughput(th))
}

// A reduced Figure 14: Espresso lands closest to the upper bound.
func TestFig14EspressoClosestToUB(t *testing.T) {
	if testing.Short() {
		t.Skip("fig14 subset in -short mode")
	}
	combos := []Combo{
		{model.GPT2(), SpecEFSignSGD},
		{model.LSTM(), SpecDGC},
	}
	pts, err := Fig14For(NVLink, combos)
	if err != nil {
		t.Fatal(err)
	}
	cdf := CDF(pts)
	espMax := cdf[SysEspresso][len(cdf[SysEspresso])-1]
	for _, sys := range []System{SysBytePSCompress, SysHiTopKComm, SysHiPress} {
		d := cdf[sys]
		if d[len(d)-1] < espMax {
			t.Errorf("%v max diff %.1f%% below Espresso's %.1f%%", sys, d[len(d)-1], espMax)
		}
	}
	for _, p := range pts {
		if p.System == SysEspresso && p.DiffPct < -0.1 {
			t.Errorf("%s: Espresso above the upper bound (%.2f%%)", p.Combo, p.DiffPct)
		}
	}
	t.Logf("\n%s", RenderFig14(pts))
}

// Figure 15: the unrestricted search space always wins.
func TestFig15FullSpaceWins(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep in -short mode")
	}
	rows, err := Fig15()
	if err != nil {
		t.Fatal(err)
	}
	byPanel := map[string][]Fig15Row{}
	for _, r := range rows {
		byPanel[r.Panel] = append(byPanel[r.Panel], r)
	}
	if len(byPanel) != 4 {
		t.Fatalf("%d panels, want 4", len(byPanel))
	}
	for panel, prs := range byPanel {
		var esp float64
		for _, r := range prs {
			if r.Mechanism == string(mechEspresso) {
				esp = r.SF
			}
		}
		for _, r := range prs {
			// Greedy path differences allow sub-percent noise.
			if r.SF > esp*1.01 {
				t.Errorf("%s: crippled %q (%.2f) beats Espresso (%.2f)", panel, r.Mechanism, r.SF, esp)
			}
		}
	}
	t.Logf("\n%s", RenderFig15(rows))
}

// Figure 16: compressed training preserves accuracy and predicts speedup.
func TestFig16AccuracyParity(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence runs in -short mode")
	}
	rows, err := Fig16()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.GCAcc < r.FP32Acc-0.03 {
			t.Errorf("%s/%s: GC accuracy %.3f vs FP32 %.3f", r.Task, r.Algo, r.GCAcc, r.FP32Acc)
		}
		if r.Speedup <= 1 {
			t.Errorf("%s/%s: speedup %.2f should exceed 1", r.Task, r.Algo, r.Speedup)
		}
	}
	t.Logf("\n%s", RenderFig16(rows))
}

func TestTimelineDemoScenarios(t *testing.T) {
	demos, err := TimelineDemo()
	if err != nil {
		t.Fatal(err)
	}
	if len(demos) != 4 {
		t.Fatalf("%d scenarios, want 4", len(demos))
	}
	for name, gantt := range demos {
		if !strings.Contains(gantt, "iteration=") || !strings.Contains(gantt, "gpu") {
			t.Errorf("%s: malformed gantt:\n%s", name, gantt)
		}
	}
}

// Beyond the paper's 64 GPUs: the benefit keeps growing at 128 GPUs (16
// machines), where communication dominates even more.
func TestScalesBeyondPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("128-GPU extension in -short mode")
	}
	combo := Combo{model.GPT2(), SpecEFSignSGD}
	th, err := ThroughputSweep(combo, NVLink, []int{8, 16}, []System{SysFP32, SysEspresso})
	if err != nil {
		t.Fatal(err)
	}
	gain64 := th.Series[SysEspresso][0] / th.Series[SysFP32][0]
	gain128 := th.Series[SysEspresso][1] / th.Series[SysFP32][1]
	if gain128 <= gain64 {
		t.Fatalf("Espresso's margin should grow with scale: %.2fx at 64 GPUs, %.2fx at 128", gain64, gain128)
	}
	t.Logf("Espresso over FP32: %.2fx at 64 GPUs, %.2fx at 128 GPUs", gain64, gain128)
}

// The §2.3 traffic-savings claim on real bytes: sparsifiers at 1% save
// ~98% of the inter-machine exchange, EFSignSGD ~96%.
func TestTrafficSavings(t *testing.T) {
	rows, err := Traffic()
	if err != nil {
		t.Fatal(err)
	}
	byAlgo := map[string]TrafficRow{}
	for _, r := range rows {
		byAlgo[r.Algo] = r
		if r.InterSavingPct <= 0 || r.InterSavingPct >= 100 {
			t.Errorf("%s: implausible saving %.1f%%", r.Algo, r.InterSavingPct)
		}
	}
	if s := byAlgo["randomk(0.01)"].InterSavingPct; s < 90 {
		t.Errorf("randomk saving %.1f%%, want ~98%%", s)
	}
	if s := byAlgo["efsignsgd"].InterSavingPct; s < 90 {
		t.Errorf("efsignsgd saving %.1f%%, want ~96%%", s)
	}
	t.Logf("\n%s", RenderTraffic(rows))
}

// SetParallelism fans sweep cells and strategy searches across workers;
// every figure and table must come out identical to the sequential run.
func TestParallelSweepMatchesSequential(t *testing.T) {
	defer SetParallelism(1)

	combo := Combo{model.LSTM(), SpecDGC}
	SetParallelism(1)
	seq, err := ThroughputSweep(combo, NVLink, []int{2, 4}, Systems)
	if err != nil {
		t.Fatal(err)
	}
	SetParallelism(4)
	par, err := ThroughputSweep(combo, NVLink, []int{2, 4}, Systems)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Series) != len(seq.Series) {
		t.Fatalf("series count %d != %d", len(par.Series), len(seq.Series))
	}
	for sys, want := range seq.Series {
		got := par.Series[sys]
		if len(got) != len(want) {
			t.Fatalf("%v: %d points != %d", sys, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%v at %d GPUs: parallel %.3f != sequential %.3f",
					sys, par.GPUs[i], got[i], want[i])
			}
		}
	}
}
