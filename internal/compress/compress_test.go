package compress

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randVec(rng *rand.Rand, n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	return x
}

func allSpecs() []Spec {
	return []Spec{
		{ID: FP32},
		{ID: RandomK, Ratio: 0.01},
		{ID: RandomK, Ratio: 0.25},
		{ID: DGC, Ratio: 0.01},
		{ID: DGC, Ratio: 0.1},
		{ID: TopK, Ratio: 0.05},
		{ID: EFSignSGD},
		{ID: QSGD, Levels: 16},
		{ID: TernGrad},
	}
}

func TestNewRejectsInvalidSpecs(t *testing.T) {
	bad := []Spec{
		{ID: RandomK, Ratio: 0},
		{ID: DGC, Ratio: 1.5},
		{ID: TopK, Ratio: -0.1},
		{ID: ID(99)},
	}
	for _, s := range bad {
		if _, err := New(s); err == nil {
			t.Errorf("New(%+v) accepted invalid spec", s)
		}
	}
}

func TestParseID(t *testing.T) {
	for _, name := range []string{"fp32", "randomk", "dgc", "efsignsgd", "topk", "qsgd", "terngrad"} {
		id, err := ParseID(name)
		if err != nil {
			t.Fatalf("ParseID(%q): %v", name, err)
		}
		if id.String() != name {
			t.Errorf("round-trip %q -> %v", name, id)
		}
	}
	if _, err := ParseID("zstd"); err == nil {
		t.Error("ParseID accepted unknown name")
	}
}

func TestFP32RoundTripExact(t *testing.T) {
	c := MustNew(Spec{ID: FP32})
	x := randVec(rand.New(rand.NewSource(1)), 1000)
	p := c.Compress(x, 0)
	out := make([]float32, len(x))
	if err := c.Decompress(p, out); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if out[i] != x[i] {
			t.Fatalf("element %d: %v != %v", i, out[i], x[i])
		}
	}
}

func TestSparsifiersKeepExactlyK(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, spec := range []Spec{{ID: RandomK, Ratio: 0.01}, {ID: DGC, Ratio: 0.01}, {ID: TopK, Ratio: 0.01}} {
		c := MustNew(spec)
		for _, n := range []int{1, 7, 100, 4096, 50000} {
			x := randVec(rng, n)
			p := c.Compress(x, 42)
			want := keepCount(spec.Ratio, n)
			if len(p.Indices) != want || len(p.Values) != want {
				t.Errorf("%v n=%d: kept %d, want %d", spec, n, len(p.Indices), want)
			}
		}
	}
}

// Sparsified values must exactly equal the original values at the selected
// coordinates.
func TestSparsifierValueFidelity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, spec := range []Spec{{ID: RandomK, Ratio: 0.05}, {ID: DGC, Ratio: 0.05}, {ID: TopK, Ratio: 0.05}} {
		c := MustNew(spec)
		x := randVec(rng, 10000)
		p := c.Compress(x, 7)
		for i, j := range p.Indices {
			if p.Values[i] != x[j] {
				t.Fatalf("%v: value at %d is %v, original %v", spec, j, p.Values[i], x[j])
			}
		}
	}
}

func TestTopKSelectsLargestMagnitudes(t *testing.T) {
	c := MustNew(Spec{ID: TopK, Ratio: 0.1})
	x := randVec(rand.New(rand.NewSource(4)), 1000)
	p := c.Compress(x, 0)
	selected := make(map[int32]bool)
	var minSel float32 = math.MaxFloat32
	for _, j := range p.Indices {
		selected[j] = true
		if mag(x[j]) < minSel {
			minSel = mag(x[j])
		}
	}
	for i, v := range x {
		if !selected[int32(i)] && mag(v) > minSel {
			t.Fatalf("unselected element %d has magnitude %v > min selected %v", i, mag(v), minSel)
		}
	}
}

// DGC's sampled threshold must still land most of the true top-k mass.
func TestDGCApproximatesTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randVec(rng, 50000)
	exact := MustNew(Spec{ID: TopK, Ratio: 0.01}).Compress(x, 0)
	approx := MustNew(Spec{ID: DGC, Ratio: 0.01}).Compress(x, 9)
	var exactMass, approxMass float64
	for _, v := range exact.Values {
		exactMass += float64(mag(v))
	}
	for _, v := range approx.Values {
		approxMass += float64(mag(v))
	}
	if approxMass < 0.85*exactMass {
		t.Fatalf("DGC captured %.1f%% of top-k mass, want >= 85%%", 100*approxMass/exactMass)
	}
}

func TestRandomKDeterministicAcrossWorkers(t *testing.T) {
	c := MustNew(Spec{ID: RandomK, Ratio: 0.02})
	x := randVec(rand.New(rand.NewSource(6)), 5000)
	p1 := c.Compress(x, 12345)
	p2 := c.Compress(x, 12345)
	if len(p1.Indices) != len(p2.Indices) {
		t.Fatal("different selection sizes for identical seeds")
	}
	for i := range p1.Indices {
		if p1.Indices[i] != p2.Indices[i] {
			t.Fatal("different coordinates for identical seeds")
		}
	}
	p3 := c.Compress(x, 54321)
	same := true
	for i := range p1.Indices {
		if i >= len(p3.Indices) || p1.Indices[i] != p3.Indices[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("selection did not vary with seed")
	}
}

func TestEFSignSGDReconstruction(t *testing.T) {
	c := MustNew(Spec{ID: EFSignSGD})
	x := []float32{1.5, -0.5, 2.0, -4.0}
	p := c.Compress(x, 0)
	wantScale := float32((1.5 + 0.5 + 2.0 + 4.0) / 4)
	if p.Scale != wantScale {
		t.Fatalf("scale = %v, want %v", p.Scale, wantScale)
	}
	out := make([]float32, 4)
	if err := c.Decompress(p, out); err != nil {
		t.Fatal(err)
	}
	want := []float32{wantScale, -wantScale, wantScale, -wantScale}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

// Property: every algorithm's decompressed output has the right length and
// sign agreement where it carries information.
func TestSignPreservationProperty(t *testing.T) {
	c := MustNew(Spec{ID: EFSignSGD})
	prop := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		x := make([]float32, len(raw))
		for i, v := range raw {
			x[i] = float32(v) + 0.5 // avoid exact zeros
		}
		p := c.Compress(x, 0)
		out := make([]float32, len(x))
		if err := c.Decompress(p, out); err != nil {
			return false
		}
		for i := range x {
			if (x[i] >= 0) != (out[i] >= 0) && p.Scale != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: wire encoding round-trips every payload bit-exactly, and the
// encoded size matches WireBytes.
func TestWireRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, spec := range allSpecs() {
		c := MustNew(spec)
		for _, n := range []int{1, 5, 63, 64, 65, 1000, 12345} {
			x := randVec(rng, n)
			p := c.Compress(x, uint64(n))
			buf := Encode(p)
			if len(buf) != c.WireBytes(n) {
				t.Errorf("%v n=%d: encoded %d bytes, WireBytes says %d", spec, n, len(buf), c.WireBytes(n))
			}
			q, err := Decode(buf)
			if err != nil {
				t.Fatalf("%v n=%d: decode: %v", spec, n, err)
			}
			a := make([]float32, n)
			b := make([]float32, n)
			if err := c.Decompress(p, a); err != nil {
				t.Fatal(err)
			}
			if err := c.Decompress(q, b); err != nil {
				t.Fatal(err)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%v n=%d: decoded payload differs at %d", spec, n, i)
				}
			}
		}
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	c := MustNew(Spec{ID: DGC, Ratio: 0.1})
	p := c.Compress(randVec(rand.New(rand.NewSource(8)), 1000), 1)
	buf := Encode(p)
	for _, cut := range []int{0, 5, payloadHeaderBytes, len(buf) - 1} {
		if _, err := Decode(buf[:cut]); err == nil && cut < len(buf) {
			t.Errorf("Decode accepted %d/%d bytes", cut, len(buf))
		}
	}
}

func TestCompressionRatiosMatchPaper(t *testing.T) {
	n := 1 << 20 // 4 MB of floats
	dense := 4 * n
	// DGC/RandomK at 1%: indices+values => ~2% of original bytes.
	sparse := MustNew(Spec{ID: DGC, Ratio: 0.01}).WireBytes(n)
	if r := float64(sparse) / float64(dense); r < 0.019 || r > 0.021 {
		t.Errorf("sparsifier wire ratio = %v, want ~0.02", r)
	}
	// EFSignSGD: 1 bit per 32-bit element => ~1/32.
	sign := MustNew(Spec{ID: EFSignSGD}).WireBytes(n)
	if r := float64(sign) / float64(dense); r < 0.031 || r > 0.032 {
		t.Errorf("efsignsgd wire ratio = %v, want ~1/32", r)
	}
}

func TestSliceSparsePayload(t *testing.T) {
	c := MustNew(Spec{ID: TopK, Ratio: 0.5})
	x := []float32{10, -20, 30, -40, 50, -60, 70, -80}
	p := c.Compress(x, 0) // keeps 4 largest: 50,-60,70,-80 at 4..7
	left, err := Slice(p, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	right, err := Slice(p, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(left.Indices)+len(right.Indices) != len(p.Indices) {
		t.Fatalf("slice lost entries: %d + %d != %d", len(left.Indices), len(right.Indices), len(p.Indices))
	}
	if right.Base != 4 || right.N != 4 {
		t.Fatalf("right slice region = base %d n %d", right.Base, right.N)
	}
	acc := make([]float32, 8)
	if err := AddDecompressed(c, left, acc); err != nil {
		t.Fatal(err)
	}
	if err := AddDecompressed(c, right, acc); err != nil {
		t.Fatal(err)
	}
	full := make([]float32, 8)
	if err := c.Decompress(p, full); err != nil {
		t.Fatal(err)
	}
	for i := range acc {
		if acc[i] != full[i] {
			t.Fatalf("sliced reassembly differs at %d: %v vs %v", i, acc[i], full[i])
		}
	}
}

// Property: slicing a sign payload at any boundary and reassembling equals
// the unsliced decompression.
func TestSliceBitmapProperty(t *testing.T) {
	c := MustNew(Spec{ID: EFSignSGD})
	prop := func(raw []int8, cutRaw uint8) bool {
		if len(raw) < 2 {
			return true
		}
		x := make([]float32, len(raw))
		for i, v := range raw {
			x[i] = float32(v) + 0.25
		}
		p := c.Compress(x, 0)
		cut := 1 + int(cutRaw)%(len(x)-1)
		a, err := Slice(p, 0, cut)
		if err != nil {
			return false
		}
		b, err := Slice(p, cut, len(x))
		if err != nil {
			return false
		}
		full := make([]float32, len(x))
		if err := c.Decompress(p, full); err != nil {
			return false
		}
		outA := make([]float32, a.N)
		outB := make([]float32, b.N)
		if c.Decompress(a, outA) != nil || c.Decompress(b, outB) != nil {
			return false
		}
		for i := range outA {
			if outA[i] != full[i] {
				return false
			}
		}
		for i := range outB {
			if outB[i] != full[cut+i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShardBounds(t *testing.T) {
	b := ShardBounds(10, 3)
	want := []int{0, 3, 6, 10}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", b, want)
		}
	}
	if b := ShardBounds(5, 8); b[len(b)-1] != 5 || len(b) != 9 {
		t.Fatalf("more parts than elements: %v", b)
	}
}

// Error feedback invariant: in exact arithmetic, reconstructed + residual
// equals corrected gradient. With floats we check to tight tolerance.
func TestErrorFeedbackResidualInvariant(t *testing.T) {
	for _, spec := range []Spec{{ID: RandomK, Ratio: 0.1}, {ID: DGC, Ratio: 0.1}, {ID: EFSignSGD}} {
		c := MustNew(spec)
		ef := NewErrorFeedback(c)
		rng := rand.New(rand.NewSource(9))
		grad := randVec(rng, 500)
		p, err := ef.Compress(Key{Name: "t0"}, grad, 1)
		if err != nil {
			t.Fatal(err)
		}
		recon := make([]float32, len(grad))
		if err := c.Decompress(p, recon); err != nil {
			t.Fatal(err)
		}
		res := ef.Residual(Key{Name: "t0"})
		for i := range grad {
			if diff := math.Abs(float64(grad[i] - (recon[i] + res[i]))); diff > 1e-5 {
				t.Fatalf("%v: residual invariant broken at %d: %v", spec, i, diff)
			}
		}
	}
}

// Error feedback must eventually transmit every coordinate's mass: with a
// constant gradient and RandomK, the accumulated transmitted value per
// coordinate approaches iterations*value.
func TestErrorFeedbackDeliversAllMass(t *testing.T) {
	c := MustNew(Spec{ID: RandomK, Ratio: 0.2})
	ef := NewErrorFeedback(c)
	n := 50
	grad := make([]float32, n)
	for i := range grad {
		grad[i] = 1
	}
	iters := 200
	acc := make([]float32, n)
	for it := 0; it < iters; it++ {
		p, err := ef.Compress(Key{Name: "t"}, grad, uint64(it))
		if err != nil {
			t.Fatal(err)
		}
		if err := AddDecompressed(c, p, acc); err != nil {
			t.Fatal(err)
		}
	}
	var total float64
	for i, v := range acc {
		total += float64(v)
		// Any coordinate's deficit equals its final residual, which is
		// geometric with mean 1/ratio = 5 iterations of mass; allow a
		// generous tail.
		if float64(v) < 0.7*float64(iters) {
			t.Fatalf("coordinate %d received %v of %d total mass", i, v, iters)
		}
	}
	if total < 0.95*float64(n*iters) {
		t.Fatalf("aggregate mass %v below 95%% of %d", total, n*iters)
	}
}

func TestErrorFeedbackLengthMismatch(t *testing.T) {
	ef := NewErrorFeedback(MustNew(Spec{ID: EFSignSGD}))
	if _, err := ef.Compress(Key{Name: "t"}, make([]float32, 10), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ef.Compress(Key{Name: "t"}, make([]float32, 20), 0); err == nil {
		t.Error("length change across iterations not rejected")
	}
}

func TestQSGDUnbiasedMagnitude(t *testing.T) {
	c := MustNew(Spec{ID: QSGD, Levels: 16})
	x := []float32{3, -4} // norm 5
	sum := make([]float64, 2)
	trials := 2000
	out := make([]float32, 2)
	for i := 0; i < trials; i++ {
		p := c.Compress(x, uint64(i))
		if err := c.Decompress(p, out); err != nil {
			t.Fatal(err)
		}
		sum[0] += float64(out[0])
		sum[1] += float64(out[1])
	}
	if got := sum[0] / float64(trials); math.Abs(got-3) > 0.15 {
		t.Errorf("E[q(3)] = %v, want ~3", got)
	}
	if got := sum[1] / float64(trials); math.Abs(got+4) > 0.15 {
		t.Errorf("E[q(-4)] = %v, want ~-4", got)
	}
}

func TestTernGradValuesAreTernary(t *testing.T) {
	c := MustNew(Spec{ID: TernGrad})
	x := randVec(rand.New(rand.NewSource(10)), 1000)
	p := c.Compress(x, 3)
	out := make([]float32, len(x))
	if err := c.Decompress(p, out); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != 0 && v != p.Scale && v != -p.Scale {
			t.Fatalf("element %d = %v, not in {0, +-%v}", i, v, p.Scale)
		}
	}
}

func TestDecompressErrors(t *testing.T) {
	c := MustNew(Spec{ID: DGC, Ratio: 0.1})
	p := c.Compress(randVec(rand.New(rand.NewSource(11)), 100), 0)
	if err := c.Decompress(p, make([]float32, 99)); err == nil {
		t.Error("wrong output length accepted")
	}
	p.Indices[0] = 1000
	if err := c.Decompress(p, make([]float32, 100)); err == nil {
		t.Error("out-of-range index accepted")
	}
	other := MustNew(Spec{ID: EFSignSGD})
	if err := other.Decompress(p, make([]float32, 100)); err == nil {
		t.Error("algorithm mismatch accepted")
	}
}

func TestAddDecompressedBoundsCheck(t *testing.T) {
	c := MustNew(Spec{ID: FP32})
	p := c.Compress([]float32{1, 2, 3}, 0)
	p.Base = 2
	if err := AddDecompressed(c, p, make([]float32, 4)); err == nil {
		t.Error("region past accumulator end accepted")
	}
}

// Decode must never panic on arbitrary bytes — payloads arrive from the
// network in a real deployment.
func TestDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		buf := make([]byte, rng.Intn(200))
		rng.Read(buf)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode panicked on %x: %v", buf, r)
				}
			}()
			p, err := Decode(buf)
			if err != nil || p == nil {
				return
			}
			// A structurally valid decode may still carry a bogus
			// algorithm or counts; decompressing must fail cleanly,
			// not corrupt memory.
			if c, err := New(Spec{ID: p.Algo, Ratio: 0.5}); err == nil {
				out := make([]float32, p.N)
				_ = c.Decompress(p, out)
			}
		}()
	}
}

// DGC's threshold-estimation sample is 1% of the tensor, floored at 64
// so small tensors stay accurate and capped at 4096 so huge tensors
// don't pay an O(n) sort for a threshold estimate (the cap used to be
// missing), and never larger than the tensor itself.
func TestDGCSampleSize(t *testing.T) {
	cases := []struct{ n, want int }{
		{50, 50},        // tiny tensor: clamp to n
		{1000, 64},      // 1% would be 10 → floor at 64
		{6400, 64},      // exactly the floor
		{20000, 200},    // plain 1%
		{409600, 4096},  // exactly the cap
		{1 << 24, 4096}, // huge tensor → cap, not 167772
	}
	for _, tc := range cases {
		if got := dgcSampleSize(tc.n); got != tc.want {
			t.Errorf("dgcSampleSize(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// The sample cap must not disturb wire determinism: same input, same
// selection, bit-identical wire bytes across calls.
func TestDGCSampleCapDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randVec(rng, 1<<20) // large enough to hit the 4096 cap
	c, err := New(Spec{ID: DGC, Ratio: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	a := Encode(c.Compress(x, 3))
	b := Encode(c.Compress(x, 3))
	if len(a) != len(b) {
		t.Fatalf("wire sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("wire byte %d differs", i)
		}
	}
}

// Corruption anywhere in an encoded payload — header, counts, or body —
// is rejected with a typed *CorruptError, and an untouched buffer still
// decodes. This is the integrity contract the DDL wire-fault retry
// machinery relies on.
func TestDecodeRejectsCorruption(t *testing.T) {
	c := MustNew(Spec{ID: DGC, Ratio: 0.1})
	p := c.Compress(randVec(rand.New(rand.NewSource(9)), 1000), 1)
	buf := Encode(p)
	for _, pos := range []int{0, 3, 11, payloadHeaderBytes + 2, len(buf) - 1} {
		bad := append([]byte(nil), buf...)
		bad[pos] ^= 0x40
		_, err := Decode(bad)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("flip at byte %d: got %v, want *CorruptError", pos, err)
		}
	}
	// Truncation is also typed.
	_, err := Decode(buf[:len(buf)-1])
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Errorf("truncated decode: got %v, want *CorruptError", err)
	}
	if q, err := Decode(buf); err != nil || q.N != p.N {
		t.Fatalf("clean decode failed: %v", err)
	}
}
