package compress

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// efEpsilon is the relative tolerance of the error-feedback statistics.
const efEpsilon = 0.1

// Error-feedback statistics over 1,000 iterations of fresh N(0,1)
// gradients on n = 1,000 elements, the sparsifiers at δ = 0.1 on the
// in-place path and EFSignSGD on the generic one. Every compressor here
// splits x = g + e into what it transmits and the new residual, with
// ‖e'‖² = ‖x‖² − ‖C(x)‖², so a bounded residual shows two ways:
//
//   - its energy settles: the mean of ‖e‖² over the last 250 iterations
//     is within ε of its mean over iterations 250–499 (a residual that
//     grew linearly would more than double);
//   - transmission balances injection: the mean of ‖C(x)‖² over the last
//     500 iterations is within ε of E‖g‖² = n, as a residual holding back
//     mass would not be.
//
// A sparsifier keeping a fraction δ of x leaves E‖e‖² ≤ n(1−δ)/δ (TopK
// and DGC by contraction, whatever x is); RandomK, whose mask is
// independent of x, meets the bound with equality.
func TestErrorFeedbackResidualBounded(t *testing.T) {
	const n, iters, ratio = 1000, 1000, 0.1
	bound := n * (1 - ratio) / ratio
	for _, spec := range []Spec{{ID: TopK, Ratio: ratio}, {ID: DGC, Ratio: ratio}, {ID: RandomK, Ratio: ratio}, {ID: EFSignSGD}} {
		c := MustNew(spec)
		ef := NewErrorFeedback(c)
		if ef.sparse != spec.Sparsifying() {
			t.Fatalf("%v: in-place path %v, want %v", spec, ef.sparse, spec.Sparsifying())
		}
		rng := rand.New(rand.NewSource(1))
		key := Key{Name: "t", Hi: n}
		recon := make([]float32, n)
		var early, late, sent float64
		for it := 0; it < iters; it++ {
			p, err := ef.Compress(key, randVec(rng, n), uint64(it))
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Decompress(p, recon); err != nil {
				t.Fatal(err)
			}
			switch {
			case it >= 250 && it < 500:
				early += sqNorm(ef.mem[key]) / 250
			case it >= 750:
				late += sqNorm(ef.mem[key]) / 250
			}
			if it >= 500 {
				sent += sqNorm(recon) / 500
			}
		}
		if math.Abs(late/early-1) > efEpsilon {
			t.Fatalf("%v: mean residual energy %.0f over the last 250 iterations, %.0f over iterations 250-499", spec, late, early)
		}
		if math.Abs(sent/n-1) > efEpsilon {
			t.Fatalf("%v: mean transmitted energy %.0f, gradients inject %d", spec, sent, n)
		}
		if spec.Sparsifying() && late > (1+efEpsilon)*bound {
			t.Fatalf("%v: mean residual energy %.0f above n(1-δ)/δ = %.0f", spec, late, bound)
		}
		if spec.ID == RandomK && late < (1-efEpsilon)*bound {
			t.Fatalf("%v: mean residual energy %.0f, want n(1-δ)/δ = %.0f", spec, late, bound)
		}
	}
}

func sqNorm(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return s
}

// generic hides the compressor it wraps from ErrorFeedback's type
// switch, forcing the corrected-scratch path with its Decompress.
type generic struct{ Compressor }

// compareErrorFeedback runs the same gradients through the in-place and
// the generic path of c, one Compress per gradient on one key, and
// fails on the first payload or residual that differs bit for bit (any
// NaN equal to any NaN: the generic path's subtraction of a zero quiets
// a signalling NaN the in-place path leaves alone).
func compareErrorFeedback(t *testing.T, c Compressor, grads [][]float32) {
	t.Helper()
	inPlace, atomic := NewErrorFeedback(c), NewErrorFeedback(generic{c})
	if !inPlace.sparse || atomic.sparse {
		t.Fatalf("%v: in-place path %v, generic path %v", c.Spec(), inPlace.sparse, !atomic.sparse)
	}
	key := Key{Name: "t", Hi: len(grads[0])}
	for it, g := range grads {
		want, err := atomic.Compress(key, g, uint64(it))
		if err != nil {
			t.Fatal(err)
		}
		got, err := inPlace.Compress(key, g, uint64(it))
		if err != nil {
			t.Fatal(err)
		}
		if got.Algo != want.Algo || got.N != want.N || got.Base != want.Base || got.Scale != want.Scale ||
			!slices.Equal(got.Indices, want.Indices) || !sameFloats(got.Values, want.Values) || !slices.Equal(got.Bits, want.Bits) {
			t.Fatalf("%v iteration %d: payloads differ\nin place %+v\n generic %+v", c.Spec(), it, got, want)
		}
		if r, w := inPlace.Residual(key), atomic.Residual(key); !sameFloats(r, w) {
			t.Fatalf("%v iteration %d: residuals differ\nin place %v\n generic %v", c.Spec(), it, r, w)
		}
	}
}

// sameFloats is bit equality with every NaN equal to every NaN.
func sameFloats(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool {
		return math.Float32bits(x) == math.Float32bits(y) || x != x && y != y
	})
}

// The in-place path against the generic one, for every sparsifier at
// every differential ratio: five iterations on differential vectors of
// each size and distribution (ties included), three on a vector of
// specials; and the in-place steady state allocates nothing.
func TestErrorFeedbackInPlaceMatchesGeneric(t *testing.T) {
	nan := float32(math.NaN())
	specials := []float32{
		0, math.Float32frombits(signBit), nan, math.Float32frombits(0x7f800001), // a signalling NaN
		float32(math.Inf(1)), float32(math.Inf(-1)), 1e-45, -1e-45, 1, -1, math.MaxFloat32, -math.MaxFloat32,
	}
	for _, id := range []ID{RandomK, DGC, TopK} {
		for _, ratio := range diffRatios {
			c := MustNew(Spec{ID: id, Ratio: ratio})
			for i := 0; i < 21; i++ {
				grads := make([][]float32, 5)
				for it := range grads {
					_, grads[it] = diffVector(i + 21*it) // same size and distribution
				}
				compareErrorFeedback(t, c, grads)
			}
			compareErrorFeedback(t, c, [][]float32{specials, specials, specials})
		}
	}

	if raceEnabled {
		return
	}
	ef := NewErrorFeedback(MustNew(Spec{ID: TopK, Ratio: 0.01}))
	grad := randVec(rand.New(rand.NewSource(5)), 4096)
	dst := new(Payload)
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := ef.CompressInto(dst, Key{Name: "t"}, grad, 1); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("steady-state in-place CompressInto allocates %v times per call, want 0", allocs)
	}
}

// FuzzErrorFeedback reads a gradient out of arbitrary bytes — so NaNs of
// either kind, ±0, ±Inf and denormals all occur — plus a k and an
// iteration count, and holds the in-place path of every sparsifier to
// the generic one over that many iterations on the same gradient.
func FuzzErrorFeedback(f *testing.F) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	f.Add([]byte{}, uint16(0), uint8(1))
	f.Add(floatBytes(1, -1), uint16(1), uint8(3))
	f.Add(floatBytes(nan, inf, -inf, math.Float32frombits(signBit)), uint16(2), uint8(4))
	f.Add(floatBytes(0, 0, 0, 0, 0, 0, 0, 0, 0, math.Float32frombits(0x7f800001)), uint16(3), uint8(2)) // a signalling NaN
	f.Add(floatBytes(1e-45, -1e-45, math.Float32frombits(0x00800000)), uint16(1), uint8(5))             // denormals, the least normal
	f.Fuzz(func(t *testing.T, data []byte, kSeed uint16, iters uint8) {
		x := make([]float32, len(data)/4)
		for i := range x {
			x[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		if len(x) == 0 {
			return
		}
		ratio := float64(1+int(kSeed)%len(x)) / float64(len(x))
		grads := make([][]float32, 1+int(iters)%8)
		for it := range grads {
			grads[it] = x
		}
		for _, id := range []ID{RandomK, DGC, TopK} {
			compareErrorFeedback(t, MustNew(Spec{ID: id, Ratio: ratio}), grads)
		}
	})
}
