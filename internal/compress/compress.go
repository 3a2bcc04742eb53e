// Package compress implements the gradient-compression (GC) algorithms the
// paper evaluates — RandomK and DGC sparsification, EFSignSGD 1-bit
// quantization — plus an FP32 passthrough, with the error-feedback
// mechanism that preserves convergence (§2.3).
//
// The algorithms operate on real float32 gradients and produce payloads
// with a deterministic wire encoding, so the executable DDL engine
// exchanges genuinely compressed bytes. Every algorithm has a
// deterministic compressed size for a given tensor size, the property
// Espresso's empirical models require (§4.3).
package compress

import (
	"errors"
	"fmt"
	"math"
)

// ID identifies a compression algorithm.
type ID int

const (
	// FP32 is the no-compression passthrough (the paper's baseline).
	FP32 ID = iota
	// RandomK keeps a uniformly random fraction of the gradient
	// elements (Stich et al., "Sparsified SGD with memory").
	RandomK
	// DGC keeps the largest-magnitude fraction of the elements (Lin et
	// al., "Deep gradient compression"), selected with a sampled
	// threshold like the reference implementation.
	DGC
	// EFSignSGD quantizes each element to its sign, scaled by the mean
	// absolute value, with error feedback (Karimireddy et al.).
	EFSignSGD
	// TopK is exact largest-magnitude selection; DGC without threshold
	// sampling. Included as an extension algorithm.
	TopK
	// QSGD is stochastic uniform quantization to a small number of
	// levels (Alistarh et al.). Included as an extension algorithm.
	QSGD
	// TernGrad quantizes to {-1, 0, +1} times a per-tensor scale (Wen
	// et al.). Included as an extension algorithm.
	TernGrad
)

var idNames = map[ID]string{
	FP32:      "fp32",
	RandomK:   "randomk",
	DGC:       "dgc",
	EFSignSGD: "efsignsgd",
	TopK:      "topk",
	QSGD:      "qsgd",
	TernGrad:  "terngrad",
}

func (id ID) String() string {
	if s, ok := idNames[id]; ok {
		return s
	}
	return fmt.Sprintf("ID(%d)", int(id))
}

// ParseID converts a config-file algorithm name to an ID.
func ParseID(s string) (ID, error) {
	for id, name := range idNames {
		if name == s {
			return id, nil
		}
	}
	return 0, fmt.Errorf("compress: unknown algorithm %q", s)
}

// Spec selects an algorithm and its parameters, as given in the GC
// configuration file of Figure 6.
type Spec struct {
	ID ID
	// Ratio is the fraction of elements kept by sparsifiers (the paper
	// uses 0.01). Quantizers and FP32 ignore it.
	Ratio float64
	// Levels is the number of quantization levels for QSGD (default 16).
	Levels int
}

// Sparsifying reports whether the algorithm transmits (index, value) pairs.
func (s Spec) Sparsifying() bool {
	return s.ID == RandomK || s.ID == DGC || s.ID == TopK
}

func (s Spec) String() string {
	if s.Sparsifying() {
		return fmt.Sprintf("%s(%g)", s.ID, s.Ratio)
	}
	return s.ID.String()
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if _, ok := idNames[s.ID]; !ok {
		return fmt.Errorf("compress: unknown algorithm id %d", int(s.ID))
	}
	if s.Sparsifying() && (s.Ratio <= 0 || s.Ratio > 1) {
		return fmt.Errorf("compress: sparsifier ratio %g outside (0,1]", s.Ratio)
	}
	if s.ID == QSGD && s.Levels < 0 {
		return errors.New("compress: QSGD levels must be non-negative")
	}
	return nil
}

// Payload is a compressed gradient (or gradient shard).
type Payload struct {
	Algo ID
	// N is the element count of the dense region this payload covers.
	N int
	// Base is the dense offset of the region within the original
	// tensor; divisible schemes slice tensors into shards.
	Base int

	// Sparsifiers: parallel index/value arrays. Indices are relative to
	// Base.
	Indices []int32
	Values  []float32

	// Sign/ternary quantizers: 2 bits per element for TernGrad, 1 bit
	// for EFSignSGD; QSGD packs level indices. Scale is the shared
	// multiplier.
	Bits  []byte
	Scale float32
}

// Compressor turns dense gradients into payloads and back.
type Compressor interface {
	// Spec returns the algorithm configuration.
	Spec() Spec
	// Compress compresses x. seed makes randomized algorithms
	// deterministic and must vary per (tensor, iteration) to avoid
	// systematic bias. The returned payload has Base 0.
	Compress(x []float32, seed uint64) *Payload
	// CompressInto is Compress writing into dst: dst is fully
	// overwritten (Base reset to 0) and returned, with its backing
	// arrays (Indices, Values, Bits) reused when they have capacity.
	// The executable engine hands each GPU a long-lived payload so
	// steady-state compression allocates nothing beyond buffer growth.
	CompressInto(dst *Payload, x []float32, seed uint64) *Payload
	// Decompress reconstructs the dense region into out, which must
	// have length p.N. Elements the payload does not carry are zeroed.
	Decompress(p *Payload, out []float32) error
	// WireBytes reports the exact encoded size of a compressed
	// n-element region. It is deterministic, as §4.3 requires.
	WireBytes(n int) int
}

// New constructs the compressor for spec.
func New(spec Spec) (Compressor, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	switch spec.ID {
	case FP32:
		return fp32{spec}, nil
	case RandomK:
		return randomK{spec}, nil
	case DGC, TopK:
		return topK{spec}, nil
	case EFSignSGD:
		return efSign{spec}, nil
	case QSGD:
		if spec.Levels == 0 {
			spec.Levels = 16
		}
		return qsgd{spec}, nil
	case TernGrad:
		return ternGrad{spec}, nil
	default:
		return nil, fmt.Errorf("compress: unhandled algorithm %v", spec.ID)
	}
}

// MustNew is New for statically known specs; it panics on error.
func MustNew(spec Spec) Compressor {
	c, err := New(spec)
	if err != nil {
		panic(err)
	}
	return c
}

// keepCount returns the number of elements a sparsifier keeps for an
// n-element tensor: at least one (when the tensor is non-empty), at most
// n. Zero-length regions arise when a divisible scheme shards a tensor
// smaller than the node count.
func keepCount(ratio float64, n int) int {
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(ratio * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// AddDecompressed adds p's dense reconstruction into acc, which covers
// the full original tensor; p.Base offsets the write. This is the
// aggregation step after Allgather/Alltoall of compressed tensors —
// compressed aggregation is not associative (§4.2.1), so aggregation
// always happens in the dense domain. A sparse payload (distinct indices,
// as every sparsifier emits) is scatter-added, touching only the elements
// it carries; any other is decompressed into pooled scratch and added.
func AddDecompressed(c Compressor, p *Payload, acc []float32) error {
	if p.Base < 0 || p.Base+p.N > len(acc) {
		return fmt.Errorf("compress: payload region [%d,%d) outside accumulator of %d", p.Base, p.Base+p.N, len(acc))
	}
	region := acc[p.Base : p.Base+p.N]
	if sparseLike(p.Algo) {
		if err := checkSparse(p, region, c.Spec().ID); err != nil {
			return err
		}
		for i, j := range p.Indices {
			region[j] += p.Values[i]
		}
		return nil
	}
	sc := kernelPool.Get().(*kernelScratch)
	defer kernelPool.Put(sc)
	sc.dense = scratchBuf(sc.dense, p.N)
	if err := c.Decompress(p, sc.dense); err != nil {
		return err
	}
	for i, v := range sc.dense {
		region[i] += v
	}
	return nil
}
