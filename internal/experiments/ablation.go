package experiments

import (
	"fmt"
	"strings"

	"espresso/internal/baselines"
	"espresso/internal/compress"
	"espresso/internal/core"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/par"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
)

// Fig15Row is one bar of Figure 15: the scaling factor a restricted
// mechanism achieves on VGG16 with 64 GPUs.
type Fig15Row struct {
	Panel     string
	Mechanism string
	SF        float64
}

// fig15Mechanism names a crippled selection mechanism of §5.3.
type fig15Mechanism string

const (
	mechAllCompression fig15Mechanism = "All compression"
	mechMyopic         fig15Mechanism = "Myopic compression"
	mechGPUOnly        fig15Mechanism = "GPU compression"
	mechCPUOnly        fig15Mechanism = "CPU compression"
	mechInterAllgather fig15Mechanism = "Inter Allgather"
	mechInterAlltoall  fig15Mechanism = "Inter Alltoall"
	mechA2AA2A         fig15Mechanism = "Alltoall+Alltoall"
	mechEspresso       fig15Mechanism = "Espresso"
)

// runMechanism selects a strategy under one crippled mechanism and
// returns its iteration-time scaling factor.
func runMechanism(mech fig15Mechanism, m *model.Model, tb Testbed, spec compress.Spec) (float64, error) {
	c := tb.Make(8)
	cm, err := cost.NewModels(c, spec)
	if err != nil {
		return 0, err
	}
	sel := core.NewSelector(m, c, cm)
	eng := timeline.New(m, c, cm)
	eng.RecordOps = false

	var s *strategy.Strategy
	switch mech {
	case mechEspresso:
		s, _, err = sel.Select()
	case mechAllCompression:
		s, _, err = sel.SelectAllCompressed()
	case mechMyopic:
		opts := strategy.Filter(strategy.EnumerateGPU(c), strategy.Option.Compressed)
		_, s, err = baselines.Selective(eng, strategy.NoCompression(c), opts)
	case mechGPUOnly:
		sel.SetDevices([]cost.Device{cost.GPU})
		s, _, err = sel.Select()
	case mechCPUOnly:
		sel.SetDevices([]cost.Device{cost.CPU})
		s, _, err = sel.Select()
	case mechInterAllgather:
		sel.SetCandidates([]strategy.Option{
			strategy.NoCompression(c),
			baselines.InterCompressed(c, cost.GPU),
		})
		s, _, err = sel.Select()
	case mechInterAlltoall:
		sel.SetCandidates([]strategy.Option{
			strategy.NoCompression(c),
			baselines.InterAlltoall(c, cost.GPU),
		})
		s, _, err = sel.Select()
	case mechA2AA2A:
		sel.SetCandidates([]strategy.Option{
			strategy.NoCompression(c),
			baselines.AlltoallAlltoall(c, cost.GPU),
		})
		s, _, err = sel.Select()
	default:
		return 0, fmt.Errorf("experiments: unknown mechanism %q", mech)
	}
	if err != nil {
		return 0, err
	}
	iter, err := eng.IterTime(s)
	if err != nil {
		return 0, err
	}
	return core.ScalingFactor(m, c, iter), nil
}

// Fig15 reproduces the search-space ablation of §5.3 on VGG16 with 64
// GPUs: cripple one dimension and select with the remaining three.
// Panels (a)-(c) restrict Dimensions 1-3 on the NVLink testbed with DGC;
// panel (d) restricts Dimension 4 with EFSignSGD on the PCIe testbed,
// where the intra-/inter-machine compression choice matters.
func Fig15() ([]Fig15Row, error) {
	m := model.VGG16()
	panels := []struct {
		panel string
		tb    Testbed
		spec  compress.Spec
		mechs []fig15Mechanism
	}{
		{"(a) restrict dim 1", NVLink, SpecDGC, []fig15Mechanism{mechAllCompression, mechMyopic, mechEspresso}},
		{"(b) restrict dim 2", NVLink, SpecDGC, []fig15Mechanism{mechGPUOnly, mechCPUOnly, mechEspresso}},
		{"(c) restrict dim 3", NVLink, SpecDGC, []fig15Mechanism{mechInterAllgather, mechInterAlltoall, mechEspresso}},
		{"(d) restrict dim 4", PCIe, SpecEFSignSGD, []fig15Mechanism{mechInterAlltoall, mechA2AA2A, mechEspresso}},
	}
	// Flatten the (panel, mechanism) cells — each is an independent
	// selection — and fan them out over the package's worker budget.
	type cell struct {
		panel string
		tb    Testbed
		spec  compress.Spec
		mech  fig15Mechanism
	}
	var cells []cell
	for _, p := range panels {
		for _, mech := range p.mechs {
			cells = append(cells, cell{p.panel, p.tb, p.spec, mech})
		}
	}
	rows := make([]Fig15Row, len(cells))
	err := par.Each(len(cells), parallelism, func(_, i int) error {
		cl := cells[i]
		sf, err := runMechanism(cl.mech, m.Clone(), cl.tb, cl.spec)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", cl.panel, cl.mech, err)
		}
		rows[i] = Fig15Row{Panel: cl.panel, Mechanism: string(cl.mech), SF: sf}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderFig15 formats the ablation bars.
func RenderFig15(rows []Fig15Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-20s %8s\n", "Panel", "Mechanism", "Scaling")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %-20s %8.2f\n", r.Panel, r.Mechanism, r.SF)
	}
	return b.String()
}
