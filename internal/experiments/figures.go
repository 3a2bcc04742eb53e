package experiments

import (
	"fmt"
	"strings"
	"time"

	"espresso/internal/baselines"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
	"espresso/internal/trace"
)

// Fig10Point is one point of Figure 10: the ratio of communication time
// saved to compression time incurred when compressing a tensor of a given
// size on GPUs.
type Fig10Point struct {
	Bytes   int64
	Benefit float64
}

// Fig10 computes the GPU-compression benefit ratio across tensor sizes on
// the 64-GPU NVLink testbed: saved inter-machine communication time over
// incurred compression+decompression time. The ratio grows with size
// because of the constant kernel-launch overhead (Property #2).
func Fig10() ([]Fig10Point, error) {
	c := NVLink.Make(8)
	cm, err := cost.NewModels(c, SpecRandomK)
	if err != nil {
		return nil, err
	}
	var pts []Fig10Point
	for _, bytes := range []int64{1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20} {
		saved := cm.Inter.Allreduce(c.Machines, bytes) -
			cm.Inter.Allgather(c.Machines, cm.WireBytes(bytes))
		incurred := cm.CompressTime(cost.GPU, bytes) +
			cm.DecompressTime(cost.GPU, bytes, c.Machines)
		pts = append(pts, Fig10Point{Bytes: bytes, Benefit: float64(saved) / float64(incurred)})
	}
	return pts, nil
}

// RenderFig10 formats the benefit-ratio curve.
func RenderFig10(pts []Fig10Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s %10s\n", "Tensor size", "Benefit")
	for _, p := range pts {
		fmt.Fprintf(&b, "%9.1fMB %10.2f\n", float64(p.Bytes)/(1<<20), p.Benefit)
	}
	return b.String()
}

// Fig11 is the tensor-size census of BERT-base (Figure 11): many tensors,
// few distinct sizes.
func Fig11() []trace.SizeCount {
	return trace.SizeCensus(model.BERTBase())
}

// RenderFig11 formats the census.
func RenderFig11(census []trace.SizeCount) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%14s %8s\n", "Tensor elems", "Count")
	for _, sc := range census {
		fmt.Fprintf(&b, "%14d %8d\n", sc.Elems, sc.Count)
	}
	return b.String()
}

// TimelineDemo derives the didactic timelines of Figures 2/5/9: a
// three-tensor job under (a) no compression, (b) compressing only the
// last tensor, (c) compressing everything on GPUs, and (d) compressing
// everything on CPUs. It returns rendered Gantt charts keyed by scenario.
func TimelineDemo() (map[string]string, error) {
	c := NVLink.Make(8)
	cm, err := cost.NewModels(c, SpecDGC)
	if err != nil {
		return nil, err
	}
	ms := time.Millisecond
	m := model.Synthetic("fig2", []int{8 << 20, 8 << 20, 8 << 20},
		[]time.Duration{3 * ms, 3 * ms, 3 * ms}, 2*ms)
	eng := timeline.New(m, c, cm)

	out := make(map[string]string)
	render := func(name string, s *strategy.Strategy) error {
		r, err := eng.Evaluate(s)
		if err != nil {
			return err
		}
		out[name] = fmt.Sprintf("iteration=%v\n%s", r.Iter.Round(10*time.Microsecond), r.Gantt())
		return nil
	}
	plain := strategy.NoCompression(c)
	comp := baselines.InterCompressed(c, cost.GPU)

	s := strategy.Uniform(3, plain)
	if err := render("(a) baseline", s); err != nil {
		return nil, err
	}
	s = strategy.Uniform(3, plain)
	s.PerTensor[2] = comp
	if err := render("(b) compress T2 (GPU)", s); err != nil {
		return nil, err
	}
	if err := render("(c) compress all (GPU)", strategy.Uniform(3, comp)); err != nil {
		return nil, err
	}
	if err := render("(d) compress all (CPU)", strategy.Uniform(3, comp.WithDevice(cost.CPU))); err != nil {
		return nil, err
	}
	return out, nil
}
