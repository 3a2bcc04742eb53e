package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// --- references: the sort-based selection and the one-bit-at-a-time
// sign packer the kernels replaced, kept to be compared against ---

func mag(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// refOrder is every index of x sorted by the selection order: magKey
// descending, index ascending. Its first k entries are the top k.
func refOrder(x []float32) []int32 {
	perm := make([]int32, len(x))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(a, b int) bool {
		ka, kb := magKey(x[perm[a]]), magKey(x[perm[b]])
		if ka != kb {
			return ka > kb
		}
		return perm[a] < perm[b]
	})
	return perm
}

func refTopK(order []int32, k int) []int32 {
	top := append([]int32(nil), order[:k]...)
	sort.Slice(top, func(a, b int) bool { return top[a] < top[b] })
	return top
}

func refSignPack(x []float32) (bits []byte, scale float32) {
	bits = make([]byte, (len(x)+7)/8)
	var sum float64
	for i, v := range x {
		if v >= 0 {
			bits[i/8] |= 1 << (i % 8)
		}
		sum += math.Abs(float64(v))
	}
	if len(x) > 0 {
		scale = float32(sum / float64(len(x)))
	}
	return bits, scale
}

func refSignUnpack(bits []byte, scale float32, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		if bits[i/8]&(1<<(i%8)) != 0 {
			out[i] = scale
		} else {
			out[i] = -scale
		}
	}
	return out
}

func bitsOf(x []float32) []uint32 {
	out := make([]uint32, len(x))
	for i, v := range x {
		out[i] = math.Float32bits(v)
	}
	return out
}

// --- the total order on non-finite and tied inputs ---

func TestSelectionTotalOrder(t *testing.T) {
	nan := float32(math.NaN())
	negNaN := math.Float32frombits(math.Float32bits(nan) | signBit)
	inf, negInf := float32(math.Inf(1)), float32(math.Inf(-1))
	negZero := math.Float32frombits(signBit)
	cases := []struct {
		name string
		x    []float32
		k    int
		want []int32
	}{
		{"NaN outranks +Inf", []float32{1, inf, nan, 2}, 1, []int32{2}},
		{"then Inf, either sign", []float32{1, negInf, nan, 1e38, inf}, 3, []int32{1, 2, 4}},
		{"negative NaN is a NaN", []float32{inf, negNaN, 3}, 1, []int32{1}},
		{"equal NaNs: lowest index", []float32{nan, 0, nan, nan}, 2, []int32{0, 2}},
		{"Inf ties: lowest index", []float32{negInf, 5, inf}, 1, []int32{0}},
		{"+0 and -0 tie", []float32{negZero, 0, negZero, 0}, 2, []int32{0, 1}},
		{"zeros lose to anything", []float32{0, negZero, 1e-45, 0}, 1, []int32{2}},
		{"all equal: a prefix", []float32{7, -7, 7, -7, 7}, 3, []int32{0, 1, 2}},
		{"k=1", []float32{1, -9, 3}, 1, []int32{1}},
		{"k=n", []float32{3, nan, -1, 0}, 4, []int32{0, 1, 2, 3}},
		{"n=1", []float32{negZero}, 1, []int32{0}},
		{"n<8", []float32{-2, 5, -5, 1, 5, 0, 4}, 3, []int32{1, 2, 4}},
	}
	for _, tc := range cases {
		got := selectTopK(nil, tc.x, tc.k, 0, new(kernelScratch))
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: selectTopK(%v, %d) = %v, want %v", tc.name, tc.x, tc.k, got, tc.want)
		}
		if ref := refTopK(refOrder(tc.x), tc.k); !slices.Equal(ref, tc.want) {
			t.Errorf("%s: the sort-based reference gives %v, want %v", tc.name, ref, tc.want)
		}
		// Whatever the pre-filter says, the selection is the same.
		for _, floor := range []uint32{1, magKey(1), magKey(inf), math.MaxUint32} {
			if got := selectTopK(nil, tc.x, tc.k, floor, new(kernelScratch)); !slices.Equal(got, tc.want) {
				t.Errorf("%s: floor %#x changed the selection to %v", tc.name, floor, got)
			}
		}
	}
	// n=0 never reaches the kernel; both compressors emit an empty payload.
	for _, id := range []ID{TopK, DGC} {
		p := MustNew(Spec{ID: id, Ratio: 0.5}).Compress(nil, 1)
		if p.Algo != id || p.N != 0 || len(p.Indices) != 0 || len(p.Values) != 0 {
			t.Errorf("%v on an empty tensor: %+v", id, p)
		}
	}
}

// --- differential tests against the references ---

// diffVector draws one of 200 seeded vectors: the distribution and the
// size both cycle with the case number.
func diffVector(i int) (kind string, x []float32) {
	sizes := []int{0, 1, 7, 8, 9, 1000, 32768}
	rng := rand.New(rand.NewSource(int64(1000 + i)))
	x = make([]float32, sizes[i%len(sizes)])
	kind = []string{"normal", "heavy-tailed", "many-ties"}[i/len(sizes)%3]
	for j := range x {
		switch kind {
		case "normal":
			x[j] = float32(rng.NormFloat64())
		case "heavy-tailed": // Cauchy, spanning many binades
			x[j] = float32(math.Tan(math.Pi * (rng.Float64() - 0.5)))
		default: // five magnitudes, both signs, both zeros
			x[j] = float32(rng.Intn(5)) / 4 * float32(1-2*rng.Intn(2))
		}
	}
	return kind, x
}

var diffRatios = []float64{0.001, 0.01, 0.5, 1}

// The selection kernel, TopK and DGC all equal the sort-based reference
// under the same total order, on every vector, size and ratio; and DGC's
// sampled floor both undershoots (forcing the full-kernel fallback) and
// overshoots across the seeds, so both routes are what was compared.
func TestSelectionMatchesSortReference(t *testing.T) {
	var undershoot, overshoot int
	sc := new(kernelScratch)
	for i := 0; i < 200; i++ {
		kind, x := diffVector(i)
		order := refOrder(x)
		for _, ratio := range diffRatios {
			name := fmt.Sprintf("case %d (%s, n=%d, ratio %g)", i, kind, len(x), ratio)
			k := keepCount(ratio, len(x))
			want := refTopK(order, k)
			if len(x) > 0 {
				if got := selectTopK(nil, x, k, 0, sc); !slices.Equal(got, want) {
					t.Fatalf("%s: selectTopK differs from the reference\n got %v\nwant %v", name, got, want)
				}
				floor := dgcFloor(x, ratio, uint64(i), sc)
				reach := 0
				for _, v := range x {
					if magKey(v) >= floor {
						reach++
					}
				}
				if reach < k {
					undershoot++
				} else if reach > k {
					overshoot++
				}
			}
			top := MustNew(Spec{ID: TopK, Ratio: ratio}).Compress(x, uint64(i))
			dgc := MustNew(Spec{ID: DGC, Ratio: ratio}).Compress(x, uint64(i))
			if !slices.Equal(top.Indices, want) {
				t.Fatalf("%s: TopK indices differ from the reference", name)
			}
			if !slices.Equal(dgc.Indices, top.Indices) || !slices.Equal(bitsOf(dgc.Values), bitsOf(top.Values)) {
				t.Fatalf("%s: DGC and TopK differ\n dgc %v\ntopk %v", name, dgc.Indices, top.Indices)
			}
			for j, idx := range top.Indices {
				if math.Float32bits(top.Values[j]) != math.Float32bits(x[idx]) {
					t.Fatalf("%s: value %d is not x[%d]", name, j, idx)
				}
			}
		}
	}
	if undershoot == 0 || overshoot == 0 {
		t.Fatalf("DGC's floor undershot %d times and overshot %d: both routes must be exercised", undershoot, overshoot)
	}
	t.Logf("DGC floor: %d undershoots (full-kernel fallback), %d overshoots (pre-filtered)", undershoot, overshoot)
}

// EFSignSGD's byte-at-a-time kernels against the bit-at-a-time ones:
// Bits, Scale and the reconstruction, bit for bit, including -0 (whose
// sign bit is set but which is >= 0) and NaNs of either sign.
func TestEFSignMatchesBitwiseReference(t *testing.T) {
	c := MustNew(Spec{ID: EFSignSGD})
	check := func(name string, x []float32) {
		t.Helper()
		p := c.Compress(x, 0)
		bits, scale := refSignPack(x)
		if !slices.Equal(p.Bits, bits) {
			t.Fatalf("%s: Bits differ\n got %08b\nwant %08b", name, p.Bits, bits)
		}
		if math.Float32bits(p.Scale) != math.Float32bits(scale) {
			t.Fatalf("%s: Scale %v (%#x), reference %v (%#x)", name, p.Scale, math.Float32bits(p.Scale), scale, math.Float32bits(scale))
		}
		out := make([]float32, len(x))
		if err := c.Decompress(p, out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(bitsOf(out), bitsOf(refSignUnpack(bits, scale, len(x)))) {
			t.Fatalf("%s: reconstruction differs from the reference", name)
		}
	}
	for i := 0; i < 200; i++ {
		kind, x := diffVector(i)
		check(fmt.Sprintf("case %d (%s, n=%d)", i, kind, len(x)), x)
	}
	nan := float32(math.NaN())
	check("specials", []float32{
		0, math.Float32frombits(signBit), nan, math.Float32frombits(math.Float32bits(nan) | signBit),
		float32(math.Inf(1)), float32(math.Inf(-1)), 1e-45, -1e-45, 1, -1, math.MaxFloat32,
	})
}

// AddDecompressed against what it replaced — decompress into a fresh
// temporary, add element by element — for every algorithm.
func TestAddDecompressedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, spec := range allSpecs() {
		c := MustNew(spec)
		x := randVec(rng, 777)
		p := c.Compress(x, 5)
		p.Base = 100
		acc := randVec(rng, 1000)
		want := append([]float32(nil), acc...)
		tmp := make([]float32, p.N)
		if err := c.Decompress(p, tmp); err != nil {
			t.Fatal(err)
		}
		for i, v := range tmp {
			want[p.Base+i] += v
		}
		if err := AddDecompressed(c, p, acc); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(bitsOf(acc), bitsOf(want)) {
			t.Errorf("%v: AddDecompressed differs from decompress-then-add", spec)
		}
	}
}

// FuzzSelectTopK reads a float32 vector and a k out of arbitrary bytes —
// so NaN payloads, infinities, denormals and both zeros all occur — and
// holds the kernel to the sort-based reference, with and without a
// pre-filter floor taken from the input itself.
func FuzzSelectTopK(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0, 0, 128, 63}, uint16(1))                                                // [1]
	f.Add([]byte{0, 0, 192, 127, 0, 0, 128, 127, 0, 0, 128, 255, 0, 0, 0, 128}, uint16(2)) // [NaN +Inf -Inf -0]
	f.Add(binary.LittleEndian.AppendUint32(make([]byte, 36), 0xffc00001), uint16(3))       // nine zeros and a -NaN
	// The bucket holding rank k holds ties at the k-th place: 1.5625
	// shares the top digit of the three ±1.5s, one or two of which make
	// the cut; and in the forty, five of the twenty ±1s do.
	ties := floatBytes(1.5, 3, 1.5625, -1.5, 1.5, 0.25)
	f.Add(ties, uint16(2)) // k = 3
	f.Add(ties, uint16(3)) // k = 4
	var forty []byte
	for range 10 {
		forty = append(forty, floatBytes(2, -1, 1, 0.5)...)
	}
	f.Add(forty, uint16(14)) // k = 15
	f.Fuzz(func(t *testing.T, data []byte, kSeed uint16) {
		x := make([]float32, len(data)/4)
		for i := range x {
			x[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		if len(x) == 0 {
			return
		}
		k := 1 + int(kSeed)%len(x)
		want := refTopK(refOrder(x), k)
		for _, floor := range []uint32{0, magKey(x[0]), magKey(x[len(x)-1]) + 1} {
			if got := selectTopK(nil, x, k, floor, new(kernelScratch)); !slices.Equal(got, want) {
				t.Fatalf("selectTopK(%v, k=%d, floor=%#x) = %v, reference %v", x, k, floor, got, want)
			}
		}
	})
}

// floatBytes is xs as FuzzSelectTopK reads a vector.
func floatBytes(xs ...float32) []byte {
	var b []byte
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
	}
	return b
}

// --- error feedback: the in-place residual and its contract ---

// failingDecompress compresses like the wrapped compressor and fails to
// decompress while armed.
type failingDecompress struct {
	Compressor
	armed bool
}

func (c *failingDecompress) Decompress(p *Payload, out []float32) error {
	if c.armed {
		out[0] = 42 // a failed decompression may leave anything in out
		return errors.New("decompress failed")
	}
	return c.Compressor.Decompress(p, out)
}

// A Decompress error leaves the stored residual exactly as it was, grad
// is never written, and the steady state allocates nothing.
func TestErrorFeedbackInPlace(t *testing.T) {
	c := &failingDecompress{Compressor: MustNew(Spec{ID: TopK, Ratio: 0.1})}
	ef := NewErrorFeedback(c)
	rng := rand.New(rand.NewSource(17))
	grad := randVec(rng, 400)
	pristine := append([]float32(nil), grad...)
	key := Key{Name: "w", Hi: 400}

	c.armed = true
	if _, err := ef.Compress(key, grad, 1); err == nil {
		t.Fatal("first-use Decompress error not reported")
	}
	if ef.Residual(key) != nil {
		t.Fatal("a failed first use stored a residual")
	}
	c.armed = false
	for seed := uint64(1); seed <= 2; seed++ {
		if _, err := ef.Compress(key, grad, seed); err != nil {
			t.Fatal(err)
		}
	}
	before := ef.Residual(key)
	c.armed = true
	if _, err := ef.Compress(key, grad, 3); err == nil {
		t.Fatal("Decompress error not reported")
	}
	if !slices.Equal(bitsOf(ef.Residual(key)), bitsOf(before)) {
		t.Fatal("a Decompress error changed the stored residual")
	}
	c.armed = false
	if !slices.Equal(bitsOf(grad), bitsOf(pristine)) {
		t.Fatal("error feedback wrote to the caller's gradient")
	}

	if raceEnabled {
		return
	}
	dst := new(Payload)
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := ef.CompressInto(dst, key, grad, 4); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("steady-state CompressInto allocates %v times per call, want 0", allocs)
	}
}

// The concurrency contract: goroutines on distinct keys share one
// ErrorFeedback. Run under -race; each key's payloads must equal those of
// a private ErrorFeedback fed the same gradients.
func TestErrorFeedbackConcurrentDistinctKeys(t *testing.T) {
	c := MustNew(Spec{ID: DGC, Ratio: 0.05})
	shared := NewErrorFeedback(c)
	const workers, iters, n = 8, 20, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := Key{Name: "t", Lo: w * n, Hi: (w + 1) * n}
			private := NewErrorFeedback(c)
			grad := randVec(rand.New(rand.NewSource(int64(w))), n)
			for it := uint64(0); it < iters; it++ {
				got, err := shared.Compress(key, grad, it)
				if err != nil {
					t.Error(err)
					return
				}
				want, _ := private.Compress(key, grad, it)
				if !slices.Equal(got.Indices, want.Indices) || !slices.Equal(bitsOf(got.Values), bitsOf(want.Values)) {
					t.Errorf("worker %d iteration %d: shared and private error feedback diverged", w, it)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
