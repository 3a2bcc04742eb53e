// Package gen is a seeded randomized workload generator for the
// differential correctness harness: DNN models with randomized tensor
// counts and log-uniform size distributions, cluster descriptions with
// randomized machine counts and link characteristics, and compressor
// configurations spanning every algorithm family.
//
// Everything is a pure function of the seed: the same seed always
// produces the same case, on every platform, so a failing generated case
// is reproduced by re-running the harness with the seed it printed.
// Every generated artifact passes its package's Validate.
package gen

import (
	"fmt"
	"math"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/model"
	"espresso/internal/splitmix"
)

// Rand is the splitmix64 stream (Uint64, Float64, Intn) plus the
// ranged draws the generator needs.
type Rand struct{ splitmix.Rand }

// New seeds a stream. Distinct seeds give independent-looking streams.
func New(seed uint64) *Rand { return &Rand{splitmix.Rand(seed)} }

// Between returns a uniform draw in [lo, hi].
func (r *Rand) Between(lo, hi int) int {
	if hi < lo {
		panic("gen: Between with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// LogUniform draws log-uniformly from [lo, hi] — equal probability mass
// per decade, the natural distribution for tensor sizes and bandwidths
// that span orders of magnitude.
func (r *Rand) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi < lo {
		panic("gen: LogUniform needs 0 < lo <= hi")
	}
	return math.Exp(math.Log(lo) + r.Float64()*(math.Log(hi)-math.Log(lo)))
}

// Duration draws log-uniformly between lo and hi.
func (r *Rand) Duration(lo, hi time.Duration) time.Duration {
	return time.Duration(r.LogUniform(float64(lo), float64(hi)))
}

// Config bounds the generated workloads. The zero value selects the
// defaults the differential harness uses.
type Config struct {
	// MinTensors/MaxTensors bound the model's tensor count
	// (defaults 1 and 6).
	MinTensors, MaxTensors int
	// MinElems/MaxElems bound the per-tensor element count, drawn
	// log-uniformly (defaults 1<<10 and 1<<24).
	MinElems, MaxElems int
	// MaxMachines bounds the cluster's machine count (default 8).
	MaxMachines int
}

// WithDefaults returns the config with every zero or negative bound
// replaced by its default — the bounds the draws actually use.
func (c Config) WithDefaults() Config {
	if c.MinTensors <= 0 {
		c.MinTensors = 1
	}
	if c.MaxTensors <= 0 {
		c.MaxTensors = 6
	}
	if c.MinElems <= 0 {
		c.MinElems = 1 << 10
	}
	if c.MaxElems <= 0 {
		c.MaxElems = 1 << 24
	}
	if c.MaxMachines <= 0 {
		c.MaxMachines = 8
	}
	return c
}

// Model generates a random DNN workload: tensor count uniform in the
// configured range, element counts log-uniform, backward compute times
// log-uniform between 20µs and 3ms per tensor, and a forward pass
// between 0.5ms and 5ms.
func Model(r *Rand, cfg Config) *model.Model {
	cfg = cfg.WithDefaults()
	n := r.Between(cfg.MinTensors, cfg.MaxTensors)
	sizes := make([]int, n)
	computes := make([]time.Duration, n)
	for i := range sizes {
		sizes[i] = int(r.LogUniform(float64(cfg.MinElems), float64(cfg.MaxElems)))
		computes[i] = r.Duration(20*time.Microsecond, 3*time.Millisecond)
	}
	return model.Synthetic("gen", sizes, computes, r.Duration(500*time.Microsecond, 5*time.Millisecond))
}

// Cluster generates a random training-system description: 1–MaxMachines
// machines of 1–8 GPUs, NVLink-to-PCIe-class intra-machine bandwidth,
// commodity-to-datacenter NIC bandwidth, and realistic latency, staging,
// and host-core ranges. One cluster in four is latency-free (α = 0), the
// regime where the β-scaling metamorphic invariants are exact.
func Cluster(r *Rand, cfg Config) *cluster.Cluster {
	cfg = cfg.WithDefaults()
	machines := []int{1, 2, 3, 4, 8}
	var ms []int
	for _, m := range machines {
		if m <= cfg.MaxMachines {
			ms = append(ms, m)
		}
	}
	gpuChoices := []int{1, 2, 4, 8}
	c := &cluster.Cluster{
		Machines:          ms[r.Intn(len(ms))],
		GPUsPerMachine:    gpuChoices[r.Intn(len(gpuChoices))],
		IntraBandwidth:    r.LogUniform(2e9, 150e9),
		InterBandwidth:    r.LogUniform(1e9, 12e9),
		PCIeHostBandwidth: r.LogUniform(5e9, 16e9),
		CPUCores:          r.Between(8, 64),
	}
	if c.IntraBandwidth > 50e9 {
		c.Intra = cluster.NVLink
	} else {
		c.Intra = cluster.PCIe
	}
	if r.Intn(4) > 0 {
		c.IntraLatency = r.Duration(time.Microsecond, 20*time.Microsecond)
		c.InterLatency = r.Duration(2*time.Microsecond, 30*time.Microsecond)
	}
	return c
}

// Spec generates a random compressor configuration: any algorithm but
// the FP32 passthrough (the harness exercises FP32 through uncompressed
// options, which every case already contains), sparsifier ratios
// log-uniform in [0.001, 0.1], QSGD level counts in [4, 64].
func Spec(r *Rand) compress.Spec {
	ids := []compress.ID{
		compress.RandomK, compress.DGC, compress.TopK,
		compress.EFSignSGD, compress.QSGD, compress.TernGrad,
	}
	s := compress.Spec{ID: ids[r.Intn(len(ids))]}
	if s.Sparsifying() {
		s.Ratio = r.LogUniform(0.001, 0.1)
	}
	if s.ID == compress.QSGD {
		s.Levels = r.Between(4, 64)
	}
	return s
}

// Case is one generated (model, cluster, GC) configuration. Seed alone
// determines every field.
type Case struct {
	Seed    uint64
	Model   *model.Model
	Cluster *cluster.Cluster
	Spec    compress.Spec
}

// Generate builds the case for a seed. Model, cluster, and spec come
// from sub-streams of the seed, so tightening one config bound does not
// perturb the other components of the same seed.
func Generate(seed uint64, cfg Config) *Case {
	return &Case{
		Seed:    seed,
		Model:   Model(New(seed^0x6d6f64656c), cfg),
		Cluster: Cluster(New(seed^0x636c7573746572), cfg),
		Spec:    Spec(New(seed ^ 0x73706563)),
	}
}

// String renders the case compactly for failure reports.
func (c *Case) String() string {
	return fmt.Sprintf("seed=%d model(tensors=%d elems=%d) cluster(%dx%d intra=%.2fGB/s inter=%.2fGB/s α=%v/%v) spec=%v",
		c.Seed, len(c.Model.Tensors), c.Model.TotalElems(),
		c.Cluster.Machines, c.Cluster.GPUsPerMachine,
		c.Cluster.IntraBandwidth/1e9, c.Cluster.InterBandwidth/1e9,
		c.Cluster.IntraLatency, c.Cluster.InterLatency, c.Spec)
}
