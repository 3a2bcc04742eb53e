package splitmix

import (
	"math"
	"testing"
)

// streamPins are the first eight draws of each kind for four seeds. Every
// seeded artifact in the repository (generated cases, compressor samples,
// loss and corruption draws, the flight reservoir) depends on them, so
// they must never change.
var streamPins = []struct {
	seed  uint64
	u64   [8]uint64
	f64   [8]float64
	intn  [8]int
	nth13 [3]uint64 // Nth(seed, 1..3): the elastic runner's per-generation loss seeds
}{
	{
		seed: 0,
		u64: [8]uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec,
			0x1b39896a51a8749b, 0x53cb9f0c747ea2ea, 0x2c829abe1f4532e1, 0xc584133ac916ab3c},
		f64: [8]float64{0.8833108082136426, 0.43152799704850997, 0.026433771592597743, 0.9708819781538285,
			0.10634669156721244, 0.32732576421812576, 0.17386786595968284, 0.771546556331567},
		intn:  [8]int{535, 700, 679, 444, 747, 90, 913, 940},
		nth13: [3]uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f},
	},
	{
		seed: 1,
		u64: [8]uint64{0x910a2dec89025cc1, 0xbeeb8da1658eec67, 0xf893a2eefb32555e, 0x71c18690ee42c90b,
			0x71bb54d8d101b5b9, 0xc34d0bff90150280, 0xe099ec6cd7363ca5, 0x85e7bb0f12278575},
		f64: [8]float64{0.5665615751722809, 0.7457817572627011, 0.9710027535867962, 0.4443592170557721,
			0.44426470082635805, 0.762894391911761, 0.877348686764173, 0.5230671798509814},
		intn:  [8]int{465, 519, 590, 235, 761, 48, 45, 533},
		nth13: [3]uint64{0x910a2dec89025cc1, 0xbeeb8da1658eec67, 0xf893a2eefb32555e},
	},
	{
		seed: 42,
		u64: [8]uint64{0xbdd732262feb6e95, 0x28efe333b266f103, 0x47526757130f9f52, 0x581ce1ff0e4ae394,
			0x09bc585a244823f2, 0xde4431fa3c80db06, 0x37e9671c45376d5d, 0xccf635ee9e9e2fa4},
		f64: [8]float64{0.7415648787718233, 0.1599103928769201, 0.27860113025513866, 0.34419071652363753,
			0.03803016854024621, 0.8682280765465323, 0.21840519371218436, 0.8006318767135033},
		intn:  [8]int{413, 291, 858, 764, 250, 62, 925, 908},
		nth13: [3]uint64{0xbdd732262feb6e95, 0x28efe333b266f103, 0x47526757130f9f52},
	},
	{
		seed: 0xc0ffee,
		u64: [8]uint64{0xca8216fa9058d0fa, 0xece45babce870479, 0x87be93a4a16a73cb, 0x5a71c08957a50d44,
			0xc345d6e168ad2c78, 0xe47df32a3a624293, 0x08cab724ca100235, 0xdfa4529422a994bf},
		f64: [8]float64{0.7910475122192537, 0.9253594679308002, 0.5302517201356893, 0.3532982192333699,
			0.7627844143213919, 0.8925468423934797, 0.03434319160629684, 0.8736011134775821},
		intn:  [8]int{194, 697, 851, 540, 24, 507, 437, 759},
		nth13: [3]uint64{0xca8216fa9058d0fa, 0xece45babce870479, 0x87be93a4a16a73cb},
	},
}

func TestStreamPinned(t *testing.T) {
	for _, p := range streamPins {
		u, f, n := Rand(p.seed), Rand(p.seed), Rand(p.seed)
		for i := range 8 {
			if got := u.Uint64(); got != p.u64[i] {
				t.Fatalf("seed %#x: Uint64 draw %d = %#016x, want %#016x", p.seed, i, got, p.u64[i])
			}
			if got := f.Float64(); got != p.f64[i] {
				t.Fatalf("seed %#x: Float64 draw %d = %v, want %v", p.seed, i, got, p.f64[i])
			}
			if got := n.Intn(1000); got != p.intn[i] {
				t.Fatalf("seed %#x: Intn(1000) draw %d = %d, want %d", p.seed, i, got, p.intn[i])
			}
		}
		for g, want := range p.nth13 {
			if got := Nth(p.seed, uint64(g+1)); got != want {
				t.Fatalf("seed %#x: Nth(%d) = %#016x, want %#016x", p.seed, g+1, got, want)
			}
		}
	}
}

// Nth agrees with drawing the stream in order.
func TestNthIsTheNthDraw(t *testing.T) {
	r := Rand(7)
	for n := uint64(1); n <= 100; n++ {
		if got, want := Nth(7, n), r.Uint64(); got != want {
			t.Fatalf("Nth(7, %d) = %#x, want %#x", n, got, want)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	const n = 100_000
	r := Rand(0)
	sum := 0.0
	for range n {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatal("Float64 outside [0, 1):", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatal("mean is not 0.5 but", mean)
	}
}

func TestIntnUniform(t *testing.T) {
	const n, buckets = 100_000, 10
	r := Rand(0)
	var counts [buckets]int
	for range n {
		counts[r.Intn(buckets)]++
	}
	for b, c := range counts {
		if math.Abs(float64(c)-n/buckets) > 0.02*n/buckets {
			t.Fatal("bucket", b, "holds", c, "draws, not", n/buckets, "± 2%")
		}
	}
}
