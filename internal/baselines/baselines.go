// Package baselines reproduces the strategy policies of the systems the
// paper compares against (§5.1, §6):
//
//   - FP32: BytePS without compression.
//   - HiPress: GPU compression only, inter-machine communication only,
//     with a selective mechanism that compresses a tensor when the
//     wall-clock communication saving exceeds the wall-clock compression
//     cost — the τ-based criterion §3.1 critiques.
//   - HiTopKComm: compresses every tensor with GPUs, inter-machine only.
//   - BytePS-Compress: compresses every tensor with CPUs, inter-machine
//     only.
//
// Each baseline explores a narrower search space than Espresso: none of
// them consider tensor interactions, intra-machine compression, or mixed
// GPU/CPU placement. The τ rule lives only here (Selective); Espresso's
// seed family and §5.3's myopic cripple are built from it, so the
// selector dominates every policy above by construction.
package baselines

import (
	"fmt"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
)

// System identifies a comparison system by its job and CLI id.
type System string

const (
	FP32           System = "fp32"
	HiPress        System = "hipress"
	HiTopKComm     System = "hitopkcomm"
	BytePSCompress System = "bytepscompress"
)

// All lists the comparison systems in the order the figures plot them.
var All = []System{FP32, BytePSCompress, HiTopKComm, HiPress}

// systems is the one definition of each comparison system: its figure
// label and its policy, the option it communicates with, applied to every
// tensor or, for a selective system, to the tensors the τ rule picks.
var systems = map[System]struct {
	label     string
	opt       func(*cluster.Cluster) strategy.Option
	selective bool
}{
	FP32:           {"FP32", strategy.NoCompression, false},
	HiPress:        {"HiPress", interGPU, true},
	HiTopKComm:     {"HiTopKComm", interGPU, false},
	BytePSCompress: {"BytePS-Compress", interCPU, false},
}

func interGPU(c *cluster.Cluster) strategy.Option { return InterCompressed(c, cost.GPU) }
func interCPU(c *cluster.Cluster) strategy.Option { return InterCompressed(c, cost.CPU) }

// String returns the system's figure label ("" for an unknown system).
func (s System) String() string { return systems[s].label }

// Parse returns the comparison system a job id ("bytepscompress") or a
// figure label ("BytePS-Compress") names.
func Parse(name string) (System, bool) {
	for _, s := range All {
		if name == string(s) || name == systems[s].label {
			return s, true
		}
	}
	return "", false
}

// InterCompressed is the inter-machine-only compression option shared by
// the GC baselines: aggregate intra-machine with reduce-scatter, compress
// the shard, allgather compressed payloads across machines, and
// decompress. GPU systems (HiPress, HiTopKComm) forward the compressed
// payloads through the second intra step and decompress on every GPU;
// BytePS-Compress decompresses once on the host and forwards dense —
// each system's natural data path.
func InterCompressed(c *cluster.Cluster, dev cost.Device) strategy.Option {
	if c.SingleMachine() || c.GPUsPerMachine == 1 {
		// Degenerate clusters have a single communication domain;
		// compress around a flat allgather.
		return strategy.Option{Steps: []strategy.Step{
			{Act: strategy.Comp, Dev: dev},
			{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Flat, Compressed: true},
			{Act: strategy.Decomp, Dev: dev},
		}}
	}
	if dev == cost.CPU {
		return strategy.Option{Hier: true, Steps: []strategy.Step{
			{Act: strategy.Comm, Routine: strategy.ReduceScatter, Scope: strategy.Intra},
			{Act: strategy.Comp, Dev: dev},
			{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Inter, Compressed: true},
			{Act: strategy.Decomp, Dev: dev},
			{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Intra, Second: true},
		}}
	}
	return strategy.Option{Hier: true, Steps: []strategy.Step{
		{Act: strategy.Comm, Routine: strategy.ReduceScatter, Scope: strategy.Intra},
		{Act: strategy.Comp, Dev: dev},
		{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Inter, Compressed: true},
		{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Intra, Compressed: true, Second: true},
		{Act: strategy.Decomp, Dev: dev},
	}}
}

// InterAlltoall is the divisible-scheme variant of inter-machine-only
// compression (Figure 15's "Inter Alltoall" mechanism).
func InterAlltoall(c *cluster.Cluster, dev cost.Device) strategy.Option {
	if c.SingleMachine() || c.GPUsPerMachine == 1 {
		return strategy.Option{Steps: []strategy.Step{
			{Act: strategy.Comp, Dev: dev},
			{Act: strategy.Comm, Routine: strategy.Alltoall, Scope: strategy.Flat, Compressed: true},
			{Act: strategy.Decomp, Dev: dev},
			{Act: strategy.Comp, Dev: dev},
			{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Flat, Compressed: true, Second: true},
			{Act: strategy.Decomp, Dev: dev},
		}}
	}
	return strategy.Option{Hier: true, Steps: []strategy.Step{
		{Act: strategy.Comm, Routine: strategy.ReduceScatter, Scope: strategy.Intra},
		{Act: strategy.Comp, Dev: dev},
		{Act: strategy.Comm, Routine: strategy.Alltoall, Scope: strategy.Inter, Compressed: true},
		{Act: strategy.Decomp, Dev: dev},
		{Act: strategy.Comp, Dev: dev},
		{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Inter, Compressed: true, Second: true},
		{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Intra, Compressed: true, Second: true},
		{Act: strategy.Decomp, Dev: dev},
	}}
}

// AlltoallAlltoall compresses both intra-machine and inter-machine
// communication with divisible schemes (Figure 15's "Alltoall+Alltoall").
func AlltoallAlltoall(c *cluster.Cluster, dev cost.Device) strategy.Option {
	if c.SingleMachine() || c.GPUsPerMachine == 1 {
		return InterAlltoall(c, dev)
	}
	return strategy.Option{Hier: true, Steps: []strategy.Step{
		{Act: strategy.Comp, Dev: dev},
		{Act: strategy.Comm, Routine: strategy.Alltoall, Scope: strategy.Intra, Compressed: true},
		{Act: strategy.Decomp, Dev: dev},
		{Act: strategy.Comp, Dev: dev},
		{Act: strategy.Comm, Routine: strategy.Alltoall, Scope: strategy.Inter, Compressed: true},
		{Act: strategy.Decomp, Dev: dev},
		{Act: strategy.Comp, Dev: dev},
		{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Inter, Compressed: true, Second: true},
		{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Intra, Compressed: true, Second: true},
		{Act: strategy.Decomp, Dev: dev},
	}}
}

// Strategy returns the compression strategy sys would run for the job.
func Strategy(sys System, m *model.Model, c *cluster.Cluster, cm *cost.Models) (*strategy.Strategy, error) {
	d, ok := systems[sys]
	if !ok {
		return nil, fmt.Errorf("baselines: unknown system %q", string(sys))
	}
	if !d.selective {
		return strategy.Uniform(len(m.Tensors), d.opt(c)), nil
	}
	selective, _, err := Selective(timeline.New(m, c, cm), strategy.NoCompression(c), []strategy.Option{d.opt(c)})
	if err != nil {
		return nil, err
	}
	return selective[0], nil
}

// Selective applies the τ rule §3.1 faults HiPress for (compress a tensor
// when its wall-clock communication saving beats its compression cost) to
// each option of opts, pricing every (tensor, option) pair once. A
// tensor's bar is its τ_comm under plain, the uncompressed option; the
// engine memoizes chains by Steps identity, so a caller passes the plain
// value its other strategies hold. It returns, in opts order, the
// strategy compressing with each option exactly the tensors whose
// τ_comm + τ_comp beats the bar, and the myopic strategy — §5.3's "Myopic
// compression" — giving every tensor the first option strictly cheaper
// than the bar and every earlier option. No tensor interaction enters
// either: exactly the myopia of Reason #1.
func Selective(eng *timeline.Engine, plain strategy.Option, opts []strategy.Option) ([]*strategy.Strategy, *strategy.Strategy, error) {
	n := len(eng.M.Tensors)
	// bar holds each tensor's uncompressed τ_comm, best its cheapest cost
	// so far. Pricing option by option, not tensor by tensor, keeps the
	// memoized chains in the order the seeds built from them run in.
	bar := make([]time.Duration, 2*n)
	bar, best := bar[:n], bar[n:]
	for i := range bar {
		d, err := eng.CommTime(i, plain)
		if err != nil {
			return nil, nil, err
		}
		bar[i], best[i] = d, d
	}
	myopic := strategy.Uniform(n, plain)
	selective := make([]*strategy.Strategy, len(opts))
	for j, o := range opts {
		selective[j] = strategy.Uniform(n, plain)
		for i := range bar {
			comm, err := eng.CommTime(i, o)
			if err != nil {
				return nil, nil, err
			}
			comp, err := eng.CompTime(i, o)
			if err != nil {
				return nil, nil, err
			}
			if d := comm + comp; d < bar[i] {
				selective[j].PerTensor[i] = o
				if d < best[i] {
					best[i] = d
					myopic.PerTensor[i] = o
				}
			}
		}
	}
	return selective, myopic, nil
}
