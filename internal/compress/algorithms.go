package compress

import (
	"fmt"
	"math"
	"slices"

	"espresso/internal/splitmix"
)

// --- FP32 passthrough ---

type fp32 struct{ spec Spec }

func (c fp32) Spec() Spec { return c.spec }

func (c fp32) Compress(x []float32, seed uint64) *Payload {
	return c.CompressInto(new(Payload), x, seed)
}

func (c fp32) CompressInto(dst *Payload, x []float32, _ uint64) *Payload {
	vals := scratchBuf(dst.Values, len(x))
	copy(vals, x)
	*dst = Payload{Algo: FP32, N: len(x), Values: vals}
	return dst
}

func (c fp32) Decompress(p *Payload, out []float32) error {
	if err := checkRegion(p, out, FP32); err != nil {
		return err
	}
	copy(out, p.Values)
	return nil
}

func (c fp32) WireBytes(n int) int { return payloadHeaderBytes + 4*n }

// --- RandomK sparsification ---

type randomK struct{ spec Spec }

func (c randomK) Spec() Spec { return c.spec }

// Compress keeps k elements chosen by a seeded Floyd sample, so every
// worker running with the same seed selects the same coordinates.
func (c randomK) Compress(x []float32, seed uint64) *Payload {
	return c.CompressInto(new(Payload), x, seed)
}

func (c randomK) CompressInto(dst *Payload, x []float32, seed uint64) *Payload {
	n := len(x)
	k := keepCount(c.spec.Ratio, n)
	rng := splitmix.Rand(seed)
	sc := kernelPool.Get().(*kernelScratch)
	idx := floydSample(&rng, n, k, sc.resetSet(k), scratchBuf(dst.Indices, k))
	kernelPool.Put(sc)
	return gather(dst, RandomK, x, idx)
}

func (c randomK) Decompress(p *Payload, out []float32) error {
	return scatter(p, out, RandomK)
}

func (c randomK) WireBytes(n int) int {
	return sparseWireBytes(keepCount(c.spec.Ratio, n))
}

// floydSample draws k distinct indices from [0,n) with Robert Floyd's
// algorithm into idx (whose capacity must be at least k), returned sorted
// ascending. chosen is the caller's empty membership scratch.
func floydSample(rng *splitmix.Rand, n, k int, chosen map[int32]struct{}, idx []int32) []int32 {
	for j := n - k; j < n; j++ {
		t := int32(rng.Intn(j + 1))
		if _, dup := chosen[t]; dup {
			t = int32(j)
		}
		chosen[t] = struct{}{}
	}
	idx = idx[:0]
	for i := range chosen {
		idx = append(idx, i)
	}
	slices.Sort(idx)
	return idx
}

// gather fills dst with the sparse payload carrying x's elements at idx
// (ascending), reusing dst's value storage.
func gather(dst *Payload, algo ID, x []float32, idx []int32) *Payload {
	vals := scratchBuf(dst.Values, len(idx))
	for i, j := range idx {
		vals[i] = x[j]
	}
	*dst = Payload{Algo: algo, N: len(x), Indices: idx, Values: vals}
	return dst
}

// --- TopK and DGC: exact largest-magnitude sparsification ---

// topK keeps the k largest-magnitude elements, and so does DGC (Lin et
// al.): trimming a sampled threshold's overshoot to the k largest and
// backfilling its undershoot with the largest remaining is exact top-k.
// The seeded sample only pre-filters what selectTopK has to rank, so the
// two algorithms are one type and differ in ID and in whether they sample.
type topK struct{ spec Spec }

func (c topK) Spec() Spec { return c.spec }

func (c topK) Compress(x []float32, seed uint64) *Payload {
	return c.CompressInto(new(Payload), x, seed)
}

func (c topK) CompressInto(dst *Payload, x []float32, seed uint64) *Payload {
	n := len(x)
	k := keepCount(c.spec.Ratio, n)
	idx := scratchBuf(dst.Indices, k)
	if n > 0 {
		sc := kernelPool.Get().(*kernelScratch)
		var floor uint32
		if c.spec.ID == DGC {
			floor = dgcFloor(x, c.spec.Ratio, seed, sc)
		}
		idx = selectTopK(idx, x, k, floor, sc)
		kernelPool.Put(sc)
	}
	return gather(dst, c.spec.ID, x, idx)
}

func (c topK) Decompress(p *Payload, out []float32) error {
	return scatter(p, out, c.spec.ID)
}

func (c topK) WireBytes(n int) int {
	return sparseWireBytes(keepCount(c.spec.Ratio, n))
}

// dgcFloor estimates from a seeded sample of x the key that about 2k
// elements reach: aiming at twice the kept fraction makes an undershoot,
// which costs selectTopK a pass over all of x, rare (about 1 call in 20
// at 32 Ki elements) while the candidates stay a few percent of x.
func dgcFloor(x []float32, ratio float64, seed uint64, sc *kernelScratch) uint32 {
	rng := splitmix.Rand(seed)
	sample := scratchBuf(sc.keys, dgcSampleSize(len(x)))
	sc.keys = sample
	for i := range sample {
		sample[i] = magKey(x[rng.Intn(len(x))])
	}
	below := max(0, int(float64(len(sample))*(1-2*ratio)))
	floor, _ := kthLargest(sample, len(sample)-below)
	return floor
}

// dgcSampleSize is DGC's threshold-estimation budget: 1% of the tensor,
// floored at 64 samples and capped at 4096 (the reference
// implementation's cap — without it, large tensors pay O(n/100)
// sampling), clamped to the tensor size.
func dgcSampleSize(n int) int {
	return min(n, max(64, min(n/100, 4096)))
}

// --- EFSignSGD 1-bit quantization ---

type efSign struct{ spec Spec }

func (c efSign) Spec() Spec { return c.spec }

// Compress emits one sign bit per element plus the mean absolute value as
// the shared scale, the EFSignSGD encoding.
func (c efSign) Compress(x []float32, seed uint64) *Payload {
	return c.CompressInto(new(Payload), x, seed)
}

func (c efSign) CompressInto(dst *Payload, x []float32, _ uint64) *Payload {
	n := len(x)
	bits := bitsBuf(dst.Bits, (n+7)/8)
	var sum float64 // in index order: Scale is part of the wire bytes
	for i, v := range x {
		u := math.Float32bits(v)
		m := u &^ signBit
		// v >= 0 without a branch. It is false exactly when v is
		// negative and non-zero (sign set and m != 0) or NaN (m above
		// +Inf's pattern); bit 31 of each term below says so.
		notNeg := ^(u&(m|-m) | (0x7f800000 - m)) >> 31
		bits[i>>3] |= byte(notNeg << (i & 7))
		sum += float64(math.Float32frombits(m))
	}
	scale := float32(0)
	if n > 0 {
		scale = float32(sum / float64(n))
	}
	*dst = Payload{Algo: EFSignSGD, N: n, Bits: bits, Scale: scale}
	return dst
}

func (c efSign) Decompress(p *Payload, out []float32) error {
	if err := checkRegion(p, out, EFSignSGD); err != nil {
		return err
	}
	if want := (p.N + 7) / 8; len(p.Bits) != want {
		return fmt.Errorf("compress: efsignsgd bitmap has %d bytes, want %d", len(p.Bits), want)
	}
	// One byte is eight elements: a table lookup each, no branch.
	signed := [2]float32{-p.Scale, p.Scale}
	whole := p.N / 8
	for b, packed := range p.Bits[:whole] {
		o := (*[8]float32)(out[8*b:])
		o[0] = signed[packed&1]
		o[1] = signed[packed>>1&1]
		o[2] = signed[packed>>2&1]
		o[3] = signed[packed>>3&1]
		o[4] = signed[packed>>4&1]
		o[5] = signed[packed>>5&1]
		o[6] = signed[packed>>6&1]
		o[7] = signed[packed>>7]
	}
	for i := 8 * whole; i < p.N; i++ {
		out[i] = signed[p.Bits[whole]>>(i&7)&1]
	}
	return nil
}

func (c efSign) WireBytes(n int) int {
	return payloadHeaderBytes + 4 + (n+7)/8
}

// --- QSGD stochastic quantization (extension) ---

type qsgd struct{ spec Spec }

func (c qsgd) Spec() Spec { return c.spec }

// Compress quantizes x to spec.Levels non-negative magnitude levels with
// stochastic rounding; each element takes one sign bit plus
// ceil(log2(levels+1)) magnitude bits, packed little-endian.
func (c qsgd) Compress(x []float32, seed uint64) *Payload {
	return c.CompressInto(new(Payload), x, seed)
}

func (c qsgd) CompressInto(dst *Payload, x []float32, seed uint64) *Payload {
	n := len(x)
	levels := c.spec.Levels
	rng := splitmix.Rand(seed)
	var norm float64
	for _, v := range x {
		norm += float64(v) * float64(v)
	}
	norm = math.Sqrt(norm)
	scale := float32(norm)
	bitsPer := qsgdBitsPerElem(levels)
	bits := bitsBuf(dst.Bits, (n*bitsPer+7)/8)
	for i, v := range x {
		code := uint64(0) // sign in lowest bit
		if v >= 0 {
			code = 1
		}
		level := uint64(0)
		if norm > 0 {
			u := math.Abs(float64(v)) / norm * float64(levels)
			floor := math.Floor(u)
			level = uint64(floor)
			if rng.Float64() < u-floor {
				level++
			}
			if level > uint64(levels) {
				level = uint64(levels)
			}
		}
		code |= level << 1
		putBits(bits, i*bitsPer, bitsPer, code)
	}
	*dst = Payload{Algo: QSGD, N: n, Bits: bits, Scale: scale}
	return dst
}

func (c qsgd) Decompress(p *Payload, out []float32) error {
	if err := checkRegion(p, out, QSGD); err != nil {
		return err
	}
	levels := c.spec.Levels
	bitsPer := qsgdBitsPerElem(levels)
	if want := (p.N*bitsPer + 7) / 8; len(p.Bits) != want {
		return fmt.Errorf("compress: qsgd bitmap has %d bytes, want %d", len(p.Bits), want)
	}
	for i := range out {
		code := getBits(p.Bits, i*bitsPer, bitsPer)
		level := code >> 1
		v := p.Scale * float32(level) / float32(levels)
		if code&1 == 0 {
			v = -v
		}
		out[i] = v
	}
	return nil
}

func (c qsgd) WireBytes(n int) int {
	return payloadHeaderBytes + 4 + (n*qsgdBitsPerElem(c.spec.Levels)+7)/8
}

func qsgdBitsPerElem(levels int) int {
	b := 1 // sign
	for l := levels; l > 0; l >>= 1 {
		b++
	}
	return b
}

// --- TernGrad ternary quantization (extension) ---

type ternGrad struct{ spec Spec }

func (c ternGrad) Spec() Spec { return c.spec }

// Compress maps each element to {-1, 0, +1} * max|x| with stochastic
// rounding, packing 2 bits per element.
func (c ternGrad) Compress(x []float32, seed uint64) *Payload {
	return c.CompressInto(new(Payload), x, seed)
}

func (c ternGrad) CompressInto(dst *Payload, x []float32, seed uint64) *Payload {
	n := len(x)
	rng := splitmix.Rand(seed)
	var maxAbs float64
	for _, v := range x {
		a := math.Abs(float64(v))
		if a > maxAbs {
			maxAbs = a
		}
	}
	bits := bitsBuf(dst.Bits, (2*n+7)/8)
	for i, v := range x {
		code := uint64(0) // 0 => zero, 1 => +scale, 2 => -scale
		if maxAbs > 0 {
			p := math.Abs(float64(v)) / maxAbs
			if rng.Float64() < p {
				if v >= 0 {
					code = 1
				} else {
					code = 2
				}
			}
		}
		putBits(bits, 2*i, 2, code)
	}
	*dst = Payload{Algo: TernGrad, N: n, Bits: bits, Scale: float32(maxAbs)}
	return dst
}

func (c ternGrad) Decompress(p *Payload, out []float32) error {
	if err := checkRegion(p, out, TernGrad); err != nil {
		return err
	}
	if want := (2*p.N + 7) / 8; len(p.Bits) != want {
		return fmt.Errorf("compress: terngrad bitmap has %d bytes, want %d", len(p.Bits), want)
	}
	for i := range out {
		switch getBits(p.Bits, 2*i, 2) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = p.Scale
		case 2:
			out[i] = -p.Scale
		default:
			return fmt.Errorf("compress: terngrad code 3 at element %d", i)
		}
	}
	return nil
}

func (c ternGrad) WireBytes(n int) int {
	return payloadHeaderBytes + 4 + (2*n+7)/8
}

// --- shared helpers ---

func checkRegion(p *Payload, out []float32, want ID) error {
	if p.Algo != want {
		return fmt.Errorf("compress: payload algo %v, decompressor %v", p.Algo, want)
	}
	if len(out) != p.N {
		return fmt.Errorf("compress: out has %d elements, payload covers %d", len(out), p.N)
	}
	return nil
}

// checkSparse validates a sparse payload against the dense region it is
// about to be written into.
func checkSparse(p *Payload, out []float32, want ID) error {
	if err := checkRegion(p, out, want); err != nil {
		return err
	}
	if len(p.Indices) != len(p.Values) {
		return fmt.Errorf("compress: %d indices vs %d values", len(p.Indices), len(p.Values))
	}
	for _, j := range p.Indices {
		if j < 0 || int(j) >= p.N {
			return fmt.Errorf("compress: index %d outside region of %d", j, p.N)
		}
	}
	return nil
}

// scatter writes a sparse payload into a zeroed dense region.
func scatter(p *Payload, out []float32, want ID) error {
	if err := checkSparse(p, out, want); err != nil {
		return err
	}
	clear(out)
	for i, j := range p.Indices {
		out[j] = p.Values[i]
	}
	return nil
}

// sparseWireBytes is the encoded size of k (index, value) pairs.
func sparseWireBytes(k int) int { return payloadHeaderBytes + 8*k }

// putBits writes the low width bits of code at bit offset off.
func putBits(buf []byte, off, width int, code uint64) {
	for b := 0; b < width; b++ {
		if code&(1<<b) != 0 {
			buf[(off+b)/8] |= 1 << ((off + b) % 8)
		}
	}
}

// getBits reads width bits at bit offset off.
func getBits(buf []byte, off, width int) uint64 {
	var code uint64
	for b := 0; b < width; b++ {
		if buf[(off+b)/8]&(1<<((off+b)%8)) != 0 {
			code |= 1 << b
		}
	}
	return code
}
