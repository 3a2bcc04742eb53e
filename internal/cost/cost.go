// Package cost implements Espresso's empirical time models (§4.3): α–β
// cost models for the collective routines of Table 2 (following Thakur et
// al. and the NCCL performance notes), compression/decompression time
// models for GPU and CPU devices with a fixed launch overhead, and host
// staging costs for CPU offloading.
//
// All models are deterministic functions of tensor size, participant
// count, and bandwidth — the property the paper requires of GC algorithms
// and measures to hold within 5% across runs.
package cost

import (
	"fmt"
	"math"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/compress"
)

// Device is the compute resource performing a compression operation
// (Dimension 2 of the search space).
type Device int

const (
	// GPU compression is fast but contends with backward computation.
	GPU Device = iota
	// CPU compression is slower and pays PCIe staging, but runs on
	// otherwise-idle host cores.
	CPU
)

func (d Device) String() string {
	switch d {
	case GPU:
		return "GPU"
	case CPU:
		return "CPU"
	default:
		return fmt.Sprintf("Device(%d)", int(d))
	}
}

// Link models one communication domain with a per-message startup cost α
// and per-participant bandwidth β expressed in bytes/second.
type Link struct {
	Alpha time.Duration
	Bps   float64
}

func (l Link) xfer(bytes float64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	return time.Duration(bytes / l.Bps * float64(time.Second))
}

func steps(n int) float64 { return float64(n - 1) }

func log2ceil(n int) float64 {
	if n <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(n)))
}

// Allreduce is an allreduce of a bytes-sized tensor among n nodes. Like
// NCCL, the model picks the better of the ring algorithm (2(n-1) steps of
// bytes/n — bandwidth-optimal) and the binomial reduce+broadcast tree
// (2 ceil(log2 n) rounds of the full payload — latency-optimal for small
// tensors).
func (l Link) Allreduce(n int, bytes int64) time.Duration {
	if n <= 1 {
		return 0
	}
	per := float64(bytes) / float64(n)
	ring := time.Duration(2*steps(n)) * (l.Alpha + l.xfer(per))
	tree := time.Duration(2*log2ceil(n)) * (l.Alpha + l.xfer(float64(bytes)))
	if tree < ring {
		return tree
	}
	return ring
}

// ReduceScatter is the first half of a ring allreduce: (n-1) steps of
// bytes/n each, leaving each node with an aggregated shard.
func (l Link) ReduceScatter(n int, bytes int64) time.Duration {
	if n <= 1 {
		return 0
	}
	per := float64(bytes) / float64(n)
	return time.Duration(steps(n)) * (l.Alpha + l.xfer(per))
}

// Allgather distributes each node's contribution of contrib bytes to all
// others: (n-1) ring steps of contrib each. For uncompressed divisible
// schemes contrib is shard-sized (bytes/n); for compressed indivisible
// schemes contrib is a full compressed tensor, which is why compressed
// traffic grows with n (§3.1).
func (l Link) Allgather(n int, contrib int64) time.Duration {
	if n <= 1 {
		return 0
	}
	return time.Duration(steps(n)) * (l.Alpha + l.xfer(float64(contrib)))
}

// Alltoall shuffles each node's contribution of contrib bytes, sending a
// 1/n slice to every peer: (n-1) messages of contrib/n.
func (l Link) Alltoall(n int, contrib int64) time.Duration {
	if n <= 1 {
		return 0
	}
	per := float64(contrib) / float64(n)
	return time.Duration(steps(n)) * (l.Alpha + l.xfer(per))
}

// Reduce aggregates a bytes-sized tensor to a root over a binomial tree.
func (l Link) Reduce(n int, bytes int64) time.Duration {
	if n <= 1 {
		return 0
	}
	return time.Duration(log2ceil(n)) * (l.Alpha + l.xfer(float64(bytes)))
}

// Broadcast sends a bytes-sized tensor from a root over a binomial tree.
func (l Link) Broadcast(n int, bytes int64) time.Duration {
	if n <= 1 {
		return 0
	}
	return time.Duration(log2ceil(n)) * (l.Alpha + l.xfer(float64(bytes)))
}

// Gather collects each node's contribution of contrib bytes at a root,
// which serializes on the root's ingress link.
func (l Link) Gather(n int, contrib int64) time.Duration {
	if n <= 1 {
		return 0
	}
	return time.Duration(steps(n)) * (l.Alpha + l.xfer(float64(contrib)))
}

// deviceProfile is the empirical compression throughput profile for one
// (algorithm, device) pair: a fixed dispatch overhead plus streaming
// throughput over the dense input bytes. Decompression throughput covers
// reconstructing (scattering into) the dense region.
type deviceProfile struct {
	launch     time.Duration
	compBps    float64       // streaming throughput over dense input bytes
	decompBps  float64       // scatter/unpack throughput over compressed wire bytes
	denseBps   float64       // throughput of the single dense accumulate pass
	perPayload time.Duration // extra dispatch per additional payload decompressed
}

// The calibrated profiles. GPU numbers reflect V100-class kernels (HiPress
// reports multi-GB/s compression with a tens-of-µs launch cost, and that
// DGC's top-k selection is the slowest operator); CPU numbers reflect
// 48-core vectorized implementations which the paper observes to be
// markedly slower than GPU kernels but contention-free (§3, Table 1).
var gpuProfiles = map[compress.ID]deviceProfile{
	compress.FP32:      {},
	compress.RandomK:   {launch: 80 * time.Microsecond, compBps: 8e9, decompBps: 20e9, denseBps: 200e9, perPayload: 8 * time.Microsecond},
	compress.TopK:      {launch: 100 * time.Microsecond, compBps: 1.2e9, decompBps: 20e9, denseBps: 200e9, perPayload: 8 * time.Microsecond},
	compress.DGC:       {launch: 100 * time.Microsecond, compBps: 1.5e9, decompBps: 20e9, denseBps: 200e9, perPayload: 8 * time.Microsecond},
	compress.EFSignSGD: {launch: 80 * time.Microsecond, compBps: 6e9, decompBps: 15e9, denseBps: 200e9, perPayload: 8 * time.Microsecond},
	compress.QSGD:      {launch: 90 * time.Microsecond, compBps: 3e9, decompBps: 12e9, denseBps: 200e9, perPayload: 8 * time.Microsecond},
	compress.TernGrad:  {launch: 90 * time.Microsecond, compBps: 4e9, decompBps: 14e9, denseBps: 200e9, perPayload: 8 * time.Microsecond},
}

// Per-core CPU throughputs; aggregate throughput scales sublinearly with
// cores (parallel efficiency factor applied in NewModels). Selection-type
// algorithms vectorize well on hosts (BytePS-Compress reports CPU
// compression competitive for cheap operators); top-k selection does not.
var cpuPerCore = map[compress.ID]deviceProfile{
	compress.FP32:      {},
	compress.RandomK:   {launch: 10 * time.Microsecond, compBps: 0.30e9, decompBps: 0.40e9, denseBps: 1.5e9, perPayload: 2 * time.Microsecond},
	compress.TopK:      {launch: 10 * time.Microsecond, compBps: 0.30e9, decompBps: 0.40e9, denseBps: 1.5e9, perPayload: 2 * time.Microsecond},
	compress.DGC:       {launch: 10 * time.Microsecond, compBps: 0.35e9, decompBps: 0.40e9, denseBps: 1.5e9, perPayload: 2 * time.Microsecond},
	compress.EFSignSGD: {launch: 8 * time.Microsecond, compBps: 0.35e9, decompBps: 0.35e9, denseBps: 1.5e9, perPayload: 2 * time.Microsecond},
	compress.QSGD:      {launch: 10 * time.Microsecond, compBps: 0.15e9, decompBps: 0.25e9, denseBps: 1.5e9, perPayload: 2 * time.Microsecond},
	compress.TernGrad:  {launch: 10 * time.Microsecond, compBps: 0.20e9, decompBps: 0.30e9, denseBps: 1.5e9, perPayload: 2 * time.Microsecond},
}

// cpuParallelEff is the fraction of linear speedup the host pool achieves
// across all cores (memory-bandwidth bound).
const cpuParallelEff = 0.5

// Models bundles every empirical model for one (cluster, GC algorithm)
// configuration — the output of Espresso's offline profiling stage.
type Models struct {
	Cluster *cluster.Cluster
	Spec    compress.Spec

	// Intra is the intra-machine link among the k GPUs of one machine;
	// Inter is the inter-machine link among the N machines; Flat is the
	// link for single-phase collectives over all N*k GPUs, whose
	// effective bandwidth is the inter-machine NIC shared by the k
	// local GPUs.
	Intra Link
	Inter Link
	Flat  Link

	gpu        deviceProfile
	cpu        deviceProfile
	stagingBps float64
	// gpuScale/cpuScale multiply the work on the respective device
	// (1 = healthy): compression and decompression on both, forward and
	// backward compute on the GPU too. WithDeviceScale sets them; the
	// chaos layer uses them to model slow devices.
	gpuScale float64
	cpuScale float64
	// free makes compression, decompression and staging cost nothing
	// (WithFreeCompression).
	free bool

	// comp is the Spec's compressor, built once: WireBytes sits on the
	// strategy search's chain-derivation hot path and must not
	// re-construct the compressor per call.
	comp compress.Compressor
}

// NewModels builds the models for a cluster and compression algorithm.
func NewModels(c *cluster.Cluster, spec compress.Spec) (*Models, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	gpu, ok := gpuProfiles[spec.ID]
	if !ok {
		return nil, fmt.Errorf("cost: no GPU profile for %v", spec.ID)
	}
	perCore := cpuPerCore[spec.ID]
	eff := float64(c.CPUCores) * cpuParallelEff
	cpu := deviceProfile{
		launch:     perCore.launch,
		compBps:    perCore.compBps * eff,
		decompBps:  perCore.decompBps * eff,
		denseBps:   perCore.denseBps * eff,
		perPayload: perCore.perPayload,
	}
	flatBps := c.InterBandwidth / float64(c.GPUsPerMachine)
	if c.SingleMachine() {
		flatBps = c.IntraBandwidth
	}
	return &Models{
		Cluster:    c,
		Spec:       spec,
		Intra:      Link{Alpha: c.IntraLatency, Bps: c.IntraBandwidth},
		Inter:      Link{Alpha: c.InterLatency, Bps: c.InterBandwidth},
		Flat:       Link{Alpha: c.InterLatency, Bps: flatBps},
		gpu:        gpu,
		cpu:        cpu,
		stagingBps: c.PCIeHostBandwidth,
		gpuScale:   1,
		cpuScale:   1,
		comp:       compress.MustNew(spec),
	}, nil
}

// WithDeviceScale returns a copy of the models for slowed devices
// (thermal throttling, contended cores): compression and decompression
// times are multiplied by gpuScale/cpuScale, and so is forward and
// backward compute on the GPU (ComputeTime). Scales must be >= 1: a
// fault can only make a device slower.
func (m *Models) WithDeviceScale(gpuScale, cpuScale float64) (*Models, error) {
	if gpuScale < 1 || cpuScale < 1 {
		return nil, fmt.Errorf("cost: device scales %g/%g, want >= 1", gpuScale, cpuScale)
	}
	out := *m
	out.gpuScale = m.gpuScale * gpuScale
	out.cpuScale = m.cpuScale * cpuScale
	return &out, nil
}

// WithFreeCompression returns a copy of the models under which every
// compression, decompression and staging operation is free and takes no
// resource but the GPU stream — the Upper Bound configuration of §5.1.
// Compute and communication are priced as before.
func (m *Models) WithFreeCompression() *Models {
	out := *m
	out.free = true
	return &out
}

// FreeCompression reports whether the models come from
// WithFreeCompression.
func (m *Models) FreeCompression() bool { return m.free }

// ComputeTime is the time a forward or backward kernel profiled at d
// takes on the (possibly slowed) GPU.
func (m *Models) ComputeTime(d time.Duration) time.Duration {
	if m.gpuScale == 1 {
		return d
	}
	return time.Duration(float64(d) * m.gpuScale)
}

// scaleOf is the fault multiplier for dev.
func (m *Models) scaleOf(dev Device) float64 {
	if dev == CPU {
		return m.cpuScale
	}
	return m.gpuScale
}

// Profile is the public view of one device's calibrated compression
// profile, with the active fault scale folded in. Independent predictors
// (internal/oracle) consume it so they can price compression phases from
// the same calibration constants while deriving the time formulas
// themselves — the calibration is shared deliberately, the formulas are
// not.
type Profile struct {
	// Launch is the fixed dispatch overhead per operation.
	Launch time.Duration
	// CompBps is the streaming compression throughput over dense input
	// bytes; DecompBps the scatter/unpack throughput over compressed
	// wire bytes; DenseBps the throughput of the dense accumulate pass.
	CompBps, DecompBps, DenseBps float64
	// PerPayload is the extra dispatch per additional payload decompressed.
	PerPayload time.Duration
	// Scale is the fault multiplier currently applied to the device
	// (1 = healthy); the GPU's also stretches compute (ComputeTime).
	Scale float64
}

// Profile reports the calibrated compression profile of dev.
func (m *Models) Profile(dev Device) Profile {
	p := m.profile(dev)
	return Profile{
		Launch:     p.launch,
		CompBps:    p.compBps,
		DecompBps:  p.decompBps,
		DenseBps:   p.denseBps,
		PerPayload: p.perPayload,
		Scale:      m.scaleOf(dev),
	}
}

// StagingBps reports the GPU<->host staging bandwidth in bytes/second.
func (m *Models) StagingBps() float64 { return m.stagingBps }

// MustModels is NewModels for statically known configurations.
func MustModels(c *cluster.Cluster, spec compress.Spec) *Models {
	m, err := NewModels(c, spec)
	if err != nil {
		panic(err)
	}
	return m
}

func (m *Models) profile(dev Device) deviceProfile {
	if dev == CPU {
		return m.cpu
	}
	return m.gpu
}

// CompressTime models compressing denseBytes of gradient on dev.
func (m *Models) CompressTime(dev Device, denseBytes int64) time.Duration {
	p := m.profile(dev)
	if p.compBps == 0 {
		return 0 // FP32 passthrough
	}
	base := p.launch + time.Duration(float64(denseBytes)/p.compBps*float64(time.Second))
	return time.Duration(float64(base) * m.scaleOf(dev))
}

// DecompressTime models decompressing copies payloads that each cover
// denseBytes of dense region, including the dense aggregation that
// follows (the paper folds both into "compression time", §3). Scattering
// scales with the compressed wire bytes of each payload; the dense
// accumulate touches the region once.
func (m *Models) DecompressTime(dev Device, denseBytes int64, copies int) time.Duration {
	p := m.profile(dev)
	if p.decompBps == 0 || copies <= 0 {
		return 0
	}
	wire := float64(m.WireBytes(denseBytes)) * float64(copies)
	base := p.launch + time.Duration(copies-1)*p.perPayload +
		time.Duration(wire/p.decompBps*float64(time.Second)) +
		time.Duration(float64(denseBytes)/p.denseBps*float64(time.Second))
	return time.Duration(float64(base) * m.scaleOf(dev))
}

// StagingTime models one PCIe transfer of bytes between GPU and host
// memory, paid in each direction when compression runs on the CPU.
func (m *Models) StagingTime(bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / m.stagingBps * float64(time.Second))
}

// WireBytes reports the compressed wire size of denseBytes of FP32
// gradient under the configured algorithm.
func (m *Models) WireBytes(denseBytes int64) int64 {
	n := int(denseBytes / 4)
	if n == 0 && denseBytes > 0 {
		n = 1
	}
	return int64(m.comp.WireBytes(n))
}

// Ratio reports the wire-size ratio of the configured algorithm on a
// large tensor (compressed bytes / dense bytes).
func (m *Models) Ratio() float64 {
	const probe = 4 << 20
	return float64(m.WireBytes(probe)) / float64(probe)
}
