// Package oracle is an independent closed-form α–β predictor for the
// cost semantics the timeline engine implements. It prices every phase
// of a compression option — collective communication, compression,
// decompression, and PCIe staging — directly from the Thakur-style
// formulas and the exported calibration profiles, with no discrete-event
// machinery and no code shared with internal/timeline.
//
// Its purpose is differential testing (internal/oracle/diff,
// cmd/espresso-verify): on a contention-free single-chain workload the
// engine's iteration time must equal the oracle's serial sum, and on any
// workload the engine must land inside the oracle's [LowerBound,
// SerialIter] bracket. If the engine's chain derivation or the α–β
// models drift from the paper's semantics, the oracle disagrees and the
// harness reports the generated case's seed.
package oracle

import (
	"fmt"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/strategy"
)

// Res identifies the shared resource a phase occupies. The oracle keeps
// its own resource enumeration — it must not depend on the engine's.
type Res uint8

const (
	// ResGPU is the GPU compute stream (backward kernels, GPU
	// compression).
	ResGPU Res = iota
	// ResCPU is the host compression pool.
	ResCPU
	// ResPCIe is the GPU<->host staging link.
	ResPCIe
	// ResIntraNet is the intra-machine interconnect.
	ResIntraNet
	// ResInterNet is the machine NIC.
	ResInterNet
	numRes
)

func (r Res) String() string {
	switch r {
	case ResGPU:
		return "gpu"
	case ResCPU:
		return "cpu"
	case ResPCIe:
		return "pcie"
	case ResIntraNet:
		return "intra"
	case ResInterNet:
		return "inter"
	default:
		return fmt.Sprintf("Res(%d)", int(r))
	}
}

// Kind classifies a priced phase.
type Kind uint8

const (
	// KindComm is a collective communication phase.
	KindComm Kind = iota
	// KindCompress is a compression phase.
	KindCompress
	// KindDecompress is a decompression (plus dense aggregation) phase.
	KindDecompress
	// KindStage is a PCIe staging transfer for CPU offloading.
	KindStage
)

func (k Kind) String() string {
	switch k {
	case KindComm:
		return "comm"
	case KindCompress:
		return "compress"
	case KindDecompress:
		return "decompress"
	case KindStage:
		return "stage"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Phase is one closed-form-priced unit of an option's pipeline.
type Phase struct {
	// Step is the option step index that induced the phase (one step can
	// induce several phases, e.g. staging plus CPU compression).
	Step int
	Kind Kind
	Res  Res
	Dur  time.Duration
}

// Breakdown is the per-phase cost of one tensor's option.
type Breakdown struct {
	Phases []Phase
}

// Total is the serial sum of every phase — the option's cost on an
// otherwise idle machine.
func (b Breakdown) Total() time.Duration {
	var d time.Duration
	for _, p := range b.Phases {
		d += p.Dur
	}
	return d
}

// Comm sums the collective communication phases (τ_comm of §3).
func (b Breakdown) Comm() time.Duration {
	var d time.Duration
	for _, p := range b.Phases {
		if p.Kind == KindComm {
			d += p.Dur
		}
	}
	return d
}

// Compression sums compression and decompression phases.
func (b Breakdown) Compression() time.Duration {
	var d time.Duration
	for _, p := range b.Phases {
		if p.Kind == KindCompress || p.Kind == KindDecompress {
			d += p.Dur
		}
	}
	return d
}

// Staging sums the PCIe offload transfers.
func (b Breakdown) Staging() time.Duration {
	var d time.Duration
	for _, p := range b.Phases {
		if p.Kind == KindStage {
			d += p.Dur
		}
	}
	return d
}

// Predictor prices options for one (model, cluster, GC) configuration.
type Predictor struct {
	M *model.Model
	C *cluster.Cluster

	intra, inter, flat link
	flatRes            Res
	gpu, cpu           cost.Profile
	stagingBps         float64
	comp               compress.Compressor
}

// New builds a predictor. The α–β link parameters are derived from the
// cluster description alone; the compression calibration is read from
// the cost models' exported profiles (shared constants, independent
// formulas).
func New(m *model.Model, c *cluster.Cluster, cm *cost.Models) (*Predictor, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	comp, err := compress.New(cm.Spec)
	if err != nil {
		return nil, err
	}
	// A flat collective over all N*k GPUs is carried by the machine NIC
	// shared among the k local GPUs; on a single machine it runs on the
	// intra-machine interconnect instead.
	flat := link{alpha: c.InterLatency, bps: c.InterBandwidth / float64(c.GPUsPerMachine)}
	flatRes := ResInterNet
	if c.SingleMachine() {
		flat.bps = c.IntraBandwidth
		flatRes = ResIntraNet
	}
	return &Predictor{
		M: m, C: c,
		intra:      link{alpha: c.IntraLatency, bps: c.IntraBandwidth},
		inter:      link{alpha: c.InterLatency, bps: c.InterBandwidth},
		flat:       flat,
		flatRes:    flatRes,
		gpu:        cm.Profile(cost.GPU),
		cpu:        cm.Profile(cost.CPU),
		stagingBps: cm.StagingBps(),
		comp:       comp,
	}, nil
}

// wireBytes is the compressed wire size of dense FP32 bytes under the
// configured algorithm.
func (p *Predictor) wireBytes(dense int64) int64 {
	n := int(dense / 4)
	if n == 0 && dense > 0 {
		n = 1
	}
	return int64(p.comp.WireBytes(n))
}

func (p *Predictor) profile(dev cost.Device) cost.Profile {
	if dev == cost.CPU {
		return p.cpu
	}
	return p.gpu
}

// compute prices a forward or backward kernel profiled at d on the GPU,
// which a slow-device fault stretches like GPU compression.
func (p *Predictor) compute(d time.Duration) time.Duration {
	return time.Duration(float64(d) * p.gpu.Scale)
}

// compressTime prices compressing dense bytes on dev: a fixed launch
// overhead plus streaming over the dense input, times the device's fault
// scale. FP32 (zero-throughput profile) is free.
func (p *Predictor) compressTime(dev cost.Device, dense int64) time.Duration {
	pr := p.profile(dev)
	if pr.CompBps == 0 {
		return 0
	}
	base := pr.Launch + time.Duration(float64(dense)/pr.CompBps*float64(time.Second))
	return time.Duration(float64(base) * pr.Scale)
}

// decompressTime prices decompressing copies payloads that each cover
// dense bytes, including the single dense accumulate pass that follows.
func (p *Predictor) decompressTime(dev cost.Device, dense int64, copies int) time.Duration {
	pr := p.profile(dev)
	if pr.DecompBps == 0 || copies <= 0 {
		return 0
	}
	wire := float64(p.wireBytes(dense)) * float64(copies)
	base := pr.Launch + time.Duration(copies-1)*pr.PerPayload +
		time.Duration(wire/pr.DecompBps*float64(time.Second)) +
		time.Duration(float64(dense)/pr.DenseBps*float64(time.Second))
	return time.Duration(float64(base) * pr.Scale)
}

// stagingTime prices one PCIe transfer between GPU and host memory.
func (p *Predictor) stagingTime(b int64) time.Duration {
	if b <= 0 {
		return 0
	}
	return time.Duration(float64(b) / p.stagingBps * float64(time.Second))
}

// Option prices tensor idx's pipeline under opt, tracking how the
// payload evolves step by step:
//
//   - frac: the fraction of the tensor each active GPU holds (divisible
//     first steps shrink it, gathers of distinct shards restore it);
//   - lanes: how many GPUs per machine actively hold data — the NIC
//     carries lanes× the per-GPU payload inter-machine, and the shared
//     host pool serves lanes× the per-GPU work during CPU compression;
//   - copies: how many same-region compressed payloads are in flight
//     (indivisible allgathers and gathers multiply it; decompression
//     folds them back into one dense region).
func (p *Predictor) Option(idx int, opt strategy.Option) (Breakdown, error) {
	if idx < 0 || idx >= len(p.M.Tensors) {
		return Breakdown{}, fmt.Errorf("oracle: tensor %d outside model of %d", idx, len(p.M.Tensors))
	}
	if err := strategy.Check(opt, p.C); err != nil {
		return Breakdown{}, fmt.Errorf("oracle: tensor %d: %w", idx, err)
	}
	S := float64(p.M.Tensors[idx].Bytes())
	k := p.C.GPUsPerMachine
	N := p.C.Machines

	frac := 1.0
	lanes := k
	copies := 1

	var b Breakdown
	add := func(step int, kind Kind, res Res, dur time.Duration) {
		b.Phases = append(b.Phases, Phase{Step: step, Kind: kind, Res: res, Dur: dur})
	}

	for si, st := range opt.Steps {
		d := int64(frac * S)
		switch st.Act {
		case strategy.Comp:
			if st.Dev == cost.CPU {
				add(si, KindStage, ResPCIe, p.stagingTime(d))
				add(si, KindCompress, ResCPU, p.compressTime(cost.CPU, d*int64(lanes)))
			} else {
				add(si, KindCompress, ResGPU, p.compressTime(cost.GPU, d))
			}
			copies = 1

		case strategy.Decomp:
			if st.Dev == cost.CPU {
				add(si, KindDecompress, ResCPU, p.decompressTime(cost.CPU, d*int64(lanes), copies))
				add(si, KindStage, ResPCIe, p.stagingTime(d))
			} else {
				add(si, KindDecompress, ResGPU, p.decompressTime(cost.GPU, d, copies))
			}
			copies = 1

		case strategy.Comm:
			var n int
			var l link
			var res Res
			mult := int64(1)
			switch st.Scope {
			case strategy.Intra:
				n, l, res = k, p.intra, ResIntraNet
			case strategy.Inter:
				n, l, res = N, p.inter, ResInterNet
				mult = int64(lanes)
			case strategy.Flat:
				n, l, res = N*k, p.flat, p.flatRes
			}
			var dur time.Duration
			switch st.Routine {
			case strategy.Allreduce:
				dur = l.allreduce(n, d*mult)

			case strategy.ReduceScatter:
				dur = l.reduceScatter(n, d*mult)
				frac /= float64(n)

			case strategy.Allgather:
				if st.Compressed {
					dur = l.allgather(n, p.wireBytes(d)*int64(copies)*mult)
					if st.Second {
						frac *= float64(n) // gathering distinct shards
					} else {
						copies *= n // gathering same-region payloads
					}
				} else {
					dur = l.allgather(n, d*mult)
					frac *= float64(n)
				}
				if st.Scope == strategy.Intra && st.Second {
					lanes = k
				}

			case strategy.Alltoall:
				dur = l.alltoall(n, p.wireBytes(d)*int64(copies)*mult)
				frac /= float64(n)
				copies = n

			case strategy.Reduce:
				dur = l.reduce(n, d*mult)
				if st.Scope == strategy.Intra {
					lanes = 1
				}

			case strategy.Broadcast:
				if st.Compressed {
					dur = l.broadcast(n, p.wireBytes(d)*int64(copies)*mult)
				} else {
					dur = l.broadcast(n, d*mult)
				}
				if st.Scope == strategy.Intra {
					lanes = k
				}

			case strategy.Gather:
				dur = l.gather(n, p.wireBytes(d)*int64(copies)*mult)
				copies *= n
				if st.Scope == strategy.Intra {
					lanes = 1
				}

			default:
				return Breakdown{}, fmt.Errorf("oracle: tensor %d step %d: unhandled routine %v", idx, si, st.Routine)
			}
			add(si, KindComm, res, dur)
		}
	}
	return b, nil
}

// SerialIter predicts the iteration time of s executed fully serially:
// forward pass, then every tensor's backward compute and pipeline phases
// back to back. For a single-tensor model this is exact — there is
// nothing to overlap — and for any model it upper-bounds the
// work-conserving engine, which always has at least one resource busy.
func (p *Predictor) SerialIter(s *strategy.Strategy) (time.Duration, error) {
	if len(s.PerTensor) != len(p.M.Tensors) {
		return 0, fmt.Errorf("oracle: strategy covers %d tensors, model has %d",
			len(s.PerTensor), len(p.M.Tensors))
	}
	total := p.compute(p.M.Forward)
	for i, opt := range s.PerTensor {
		b, err := p.Option(i, opt)
		if err != nil {
			return 0, err
		}
		total += p.compute(p.M.Tensors[i].Compute) + b.Total()
	}
	return total, nil
}

// LowerBound is a closed-form lower bound on the engine's iteration
// time under s: forward plus the larger of (a) the busiest resource's
// total service demand (a single-server resource cannot finish before
// serving all its work) and (b) the longest single-tensor critical path
// — the backward kernels of tensors up to and including i run in index
// order on the GPU, then tensor i's pipeline phases run in sequence.
func (p *Predictor) LowerBound(s *strategy.Strategy) (time.Duration, error) {
	if len(s.PerTensor) != len(p.M.Tensors) {
		return 0, fmt.Errorf("oracle: strategy covers %d tensors, model has %d",
			len(s.PerTensor), len(p.M.Tensors))
	}
	var busy [numRes]time.Duration
	var path, computePrefix time.Duration
	for i, opt := range s.PerTensor {
		b, err := p.Option(i, opt)
		if err != nil {
			return 0, err
		}
		kernel := p.compute(p.M.Tensors[i].Compute)
		computePrefix += kernel
		busy[ResGPU] += kernel
		for _, ph := range b.Phases {
			busy[ph.Res] += ph.Dur
		}
		if chain := computePrefix + b.Total(); chain > path {
			path = chain
		}
	}
	bound := path
	for _, d := range busy {
		if d > bound {
			bound = d
		}
	}
	return p.compute(p.M.Forward) + bound, nil
}

// Bounds returns the oracle's bracket on the engine's iteration time.
func (p *Predictor) Bounds(s *strategy.Strategy) (lo, hi time.Duration, err error) {
	if lo, err = p.LowerBound(s); err != nil {
		return 0, 0, err
	}
	if hi, err = p.SerialIter(s); err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}
