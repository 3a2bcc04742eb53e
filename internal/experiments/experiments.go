// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated substrate: the scaling factors of
// Table 1, the selection-time measurements of Tables 5 and 6, the
// benefit-ratio and size-census motivating figures (10, 11), the
// end-to-end throughput sweeps (Figures 12 and 13), the distance-from-
// upper-bound distributions (Figure 14), the crippled-dimension ablation
// (Figure 15), and the convergence validation (Figure 16).
//
// Absolute numbers depend on the calibrated substrate; the reproduced
// claims are the shapes: who wins, by what factor, and where the
// crossovers fall. EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"time"

	"espresso/internal/baselines"
	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/core"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
)

// System names every scheme plotted in the figures.
type System string

const (
	SysFP32           System = "FP32"
	SysBytePSCompress System = "BytePS-Compress"
	SysHiTopKComm     System = "HiTopKComm"
	SysHiPress        System = "HiPress"
	SysEspresso       System = "Espresso"
	SysUpperBound     System = "UpperBound"
)

// Systems lists the plotted schemes in figure order.
var Systems = []System{SysFP32, SysBytePSCompress, SysHiTopKComm, SysHiPress, SysEspresso, SysUpperBound}

// Combo is one (model, GC algorithm) pairing.
type Combo struct {
	Model *model.Model
	Spec  compress.Spec
}

func (c Combo) String() string { return fmt.Sprintf("%s+%s", c.Model.Name, c.Spec) }

// Testbed builds clusters of a given machine count.
type Testbed struct {
	Name string
	Make func(machines int) *cluster.Cluster
}

// NVLink and PCIe are the paper's two testbeds.
var (
	NVLink = Testbed{Name: "NVLink+100Gbps", Make: cluster.NVLinkTestbed}
	PCIe   = Testbed{Name: "PCIe+25Gbps", Make: cluster.PCIeTestbed}
)

// Common algorithm specs used across the evaluation.
var (
	SpecRandomK   = compress.Spec{ID: compress.RandomK, Ratio: 0.01}
	SpecDGC       = compress.Spec{ID: compress.DGC, Ratio: 0.01}
	SpecEFSignSGD = compress.Spec{ID: compress.EFSignSGD}
)

// IterTime evaluates the iteration time of sys for the given job. An
// Espresso selection uses the package's parallelism budget.
func IterTime(sys System, m *model.Model, c *cluster.Cluster, cm *cost.Models) (time.Duration, error) {
	return iterTimeWorkers(sys, m, c, cm, parallelism)
}

// iterTimeWorkers is IterTime with an explicit selection worker count —
// the figure sweeps pass 1 here because they parallelize across cells
// instead.
func iterTimeWorkers(sys System, m *model.Model, c *cluster.Cluster, cm *cost.Models, workers int) (time.Duration, error) {
	switch sys {
	case SysEspresso:
		sel := core.NewSelector(m, c, cm)
		sel.Parallelism = workers
		_, rep, err := sel.Select()
		if err != nil {
			return 0, err
		}
		return rep.Iter, nil
	case SysUpperBound:
		return core.UpperBound(m, c, cm)
	default:
		bl, ok := baselines.Parse(string(sys))
		if !ok {
			return 0, fmt.Errorf("experiments: unknown system %q", sys)
		}
		s, err := baselines.Strategy(bl, m, c, cm)
		if err != nil {
			return 0, err
		}
		return evalStrategy(m, c, cm, s)
	}
}

func evalStrategy(m *model.Model, c *cluster.Cluster, cm *cost.Models, s *strategy.Strategy) (time.Duration, error) {
	eng := timeline.New(m, c, cm)
	eng.RecordOps = false
	return eng.IterTime(s)
}
