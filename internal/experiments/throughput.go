package experiments

import (
	"fmt"
	"sort"
	"strings"

	"espresso/internal/cluster"
	"espresso/internal/core"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/par"
)

// Throughput is one panel of Figures 12/13: training throughput of every
// system across cluster sizes for one (model, algorithm) pair.
type Throughput struct {
	Combo   string
	Testbed string
	// GPUs lists the cluster sizes (the x axis).
	GPUs []int
	// Series maps each system to samples/second per cluster size.
	Series map[System][]float64
	// Unit is the throughput unit (images/s or tokens/s).
	Unit string
}

// ThroughputSweep measures every system for one combo across machine
// counts on a testbed. The (machines, system) cells are independent, so
// they fan out over the package's worker budget; results land in a
// preallocated grid, keeping the output identical to a sequential run.
func ThroughputSweep(combo Combo, tb Testbed, machineCounts []int, systems []System) (*Throughput, error) {
	out := &Throughput{
		Combo:   combo.String(),
		Testbed: tb.Name,
		Series:  make(map[System][]float64),
		Unit:    combo.Model.BatchUnit + "/s",
	}
	clusters := make([]*cluster.Cluster, len(machineCounts))
	models := make([]*cost.Models, len(machineCounts))
	for i, machines := range machineCounts {
		c := tb.Make(machines)
		clusters[i] = c
		out.GPUs = append(out.GPUs, c.TotalGPUs())
		cm, err := cost.NewModels(c, combo.Spec)
		if err != nil {
			return nil, err
		}
		models[i] = cm
	}
	for _, sys := range systems {
		out.Series[sys] = make([]float64, len(machineCounts))
	}
	cells := len(machineCounts) * len(systems)
	err := par.Each(cells, parallelism, func(_, cell int) error {
		mi, sys := cell/len(systems), systems[cell%len(systems)]
		c := clusters[mi]
		iter, err := iterTimeWorkers(sys, combo.Model, c, models[mi], 1)
		if err != nil {
			return fmt.Errorf("%s on %s (%v): %w", combo, tb.Name, sys, err)
		}
		out.Series[sys][mi] = core.Throughput(combo.Model, c, iter)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fig12Combos are the NVLink panels: (a) BERT-base+RandomK, (b)
// GPT2+EFSignSGD, (c) UGATIT+DGC.
func fig12Combos() []Combo {
	return []Combo{
		{model.BERTBase(), SpecRandomK},
		{model.GPT2(), SpecEFSignSGD},
		{model.UGATIT(), SpecDGC},
	}
}

// fig13Combos are the PCIe panels: (a) VGG16+RandomK, (b) LSTM+EFSignSGD,
// (c) ResNet101+DGC.
func fig13Combos() []Combo {
	return []Combo{
		{model.VGG16(), SpecRandomK},
		{model.LSTM(), SpecEFSignSGD},
		{model.ResNet101(), SpecDGC},
	}
}

// Fig12 reproduces Figure 12: throughput on NVLink machines with 8 to 64
// GPUs.
func Fig12() ([]*Throughput, error) { return sweepAll(fig12Combos(), NVLink) }

// Fig13 reproduces Figure 13: throughput on PCIe-only machines.
func Fig13() ([]*Throughput, error) { return sweepAll(fig13Combos(), PCIe) }

func sweepAll(combos []Combo, tb Testbed) ([]*Throughput, error) {
	var out []*Throughput
	for _, combo := range combos {
		t, err := ThroughputSweep(combo, tb, []int{1, 2, 4, 8}, Systems)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// RenderThroughput formats one panel.
func RenderThroughput(t *Throughput) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s (%s)\n", t.Combo, t.Testbed, t.Unit)
	fmt.Fprintf(&b, "%-16s", "GPUs")
	for _, g := range t.GPUs {
		fmt.Fprintf(&b, "%12d", g)
	}
	b.WriteByte('\n')
	for _, sys := range Systems {
		series, ok := t.Series[sys]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-16s", sys)
		for _, v := range series {
			fmt.Fprintf(&b, "%12.0f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig14Point is one sample of Figure 14: a system's throughput deficit
// from the Upper Bound for one (model, algorithm) combo, in percent.
type Fig14Point struct {
	Combo   string
	System  System
	DiffPct float64
}

// Fig14 reproduces Figure 14 for one testbed at 64 GPUs: the distribution
// of performance differences from the Upper Bound across all 18
// (model, algorithm) combinations for each compression framework.
func Fig14(tb Testbed) ([]Fig14Point, error) {
	return Fig14For(tb, allCombos())
}

// Fig14For computes the Figure 14 points for a chosen subset of combos
// (tests use a reduced matrix; the bench harness runs all 18). Combos
// are independent, so they fan out over the package's worker budget
// into a preallocated grid — output order matches the sequential sweep.
func Fig14For(tb Testbed, combos []Combo) ([]Fig14Point, error) {
	systems := []System{SysBytePSCompress, SysHiTopKComm, SysHiPress, SysEspresso}
	pts := make([]Fig14Point, len(combos)*len(systems))
	err := par.Each(len(combos), parallelism, func(_, ci int) error {
		combo := combos[ci]
		c := tb.Make(8)
		cm, err := cost.NewModels(c, combo.Spec)
		if err != nil {
			return err
		}
		ub, err := iterTimeWorkers(SysUpperBound, combo.Model, c, cm, 1)
		if err != nil {
			return err
		}
		ubTh := core.Throughput(combo.Model, c, ub)
		for si, sys := range systems {
			iter, err := iterTimeWorkers(sys, combo.Model, c, cm, 1)
			if err != nil {
				return err
			}
			th := core.Throughput(combo.Model, c, iter)
			pts[ci*len(systems)+si] = Fig14Point{
				Combo:   combo.String(),
				System:  sys,
				DiffPct: 100 * (ubTh - th) / ubTh,
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pts, nil
}

// allCombos is the full 6x3 evaluation matrix of §5.2.4.
func allCombos() []Combo {
	var combos []Combo
	for _, m := range model.All() {
		combos = append(combos,
			Combo{m, SpecRandomK},
			Combo{m.Clone(), SpecDGC},
			Combo{m.Clone(), SpecEFSignSGD},
		)
	}
	return combos
}

// CDF summarizes Fig14 points per system as sorted diff percentiles.
func CDF(pts []Fig14Point) map[System][]float64 {
	out := make(map[System][]float64)
	for _, p := range pts {
		out[p.System] = append(out[p.System], p.DiffPct)
	}
	for sys := range out {
		sort.Float64s(out[sys])
	}
	return out
}

// RenderFig14 formats per-system percentile summaries of the CDF.
func RenderFig14(pts []Fig14Point) string {
	cdf := CDF(pts)
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %8s %8s %8s %8s\n", "System", "p0", "p50", "p90", "p100")
	for _, sys := range []System{SysBytePSCompress, SysHiTopKComm, SysHiPress, SysEspresso} {
		d := cdf[sys]
		if len(d) == 0 {
			continue
		}
		q := func(p float64) float64 { return d[int(p*float64(len(d)-1))] }
		fmt.Fprintf(&b, "%-16s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n", sys, q(0), q(0.5), q(0.9), q(1))
	}
	return b.String()
}
