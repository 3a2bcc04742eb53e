package collective

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"espresso/internal/compress"
)

func randData(rng *rand.Rand, nodes, n int) [][]float32 {
	data := make([][]float32, nodes)
	for i := range data {
		data[i] = make([]float32, n)
		for j := range data[i] {
			data[i][j] = float32(rng.NormFloat64())
		}
	}
	return data
}

func sumSpec(data [][]float32) []float64 {
	sum := make([]float64, len(data[0]))
	for _, d := range data {
		for j, v := range d {
			sum[j] += float64(v)
		}
	}
	return sum
}

func close32(a float32, b float64) bool {
	return math.Abs(float64(a)-b) < 1e-3*(1+math.Abs(b))
}

func TestAllreduceMatchesSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, nodes := range []int{1, 2, 3, 4, 7, 8, 16} {
		for _, n := range []int{1, 5, 64, 1000} {
			data := randData(rng, nodes, n)
			want := sumSpec(data)
			if err := Allreduce(data); err != nil {
				t.Fatalf("nodes=%d n=%d: %v", nodes, n, err)
			}
			for i := range data {
				for j := range data[i] {
					if !close32(data[i][j], want[j]) {
						t.Fatalf("nodes=%d n=%d: node %d elem %d = %v, want %v",
							nodes, n, i, j, data[i][j], want[j])
					}
				}
			}
		}
	}
}

func TestReduceScatterOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nodes, n := 5, 103
	data := randData(rng, nodes, n)
	want := sumSpec(data)
	bounds, err := ReduceScatter(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		for j := bounds[i]; j < bounds[i+1]; j++ {
			if !close32(data[i][j], want[j]) {
				t.Fatalf("node %d does not own reduced chunk %d at %d: %v vs %v",
					i, i, j, data[i][j], want[j])
			}
		}
	}
}

func TestReduceToEveryRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for root := 0; root < 5; root++ {
		data := randData(rng, 5, 40)
		want := sumSpec(data)
		if err := Reduce(data, root); err != nil {
			t.Fatal(err)
		}
		for j := range data[root] {
			if !close32(data[root][j], want[j]) {
				t.Fatalf("root %d elem %d = %v, want %v", root, j, data[root][j], want[j])
			}
		}
	}
}

// Property: allreduce result is identical on every node and matches the
// float64 specification, for arbitrary node counts and data.
func TestAllreduceProperty(t *testing.T) {
	prop := func(seed int64, nodesRaw, nRaw uint8) bool {
		nodes := 1 + int(nodesRaw)%12
		n := 1 + int(nRaw)%200
		data := randData(rand.New(rand.NewSource(seed)), nodes, n)
		want := sumSpec(data)
		if err := Allreduce(data); err != nil {
			return false
		}
		for i := range data {
			for j := range data[i] {
				if !close32(data[i][j], want[j]) {
					return false
				}
				if data[i][j] != data[0][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMismatchedLengthsRejected(t *testing.T) {
	data := [][]float32{make([]float32, 4), make([]float32, 5)}
	if err := Allreduce(data); err == nil {
		t.Fatal("mismatched buffers accepted")
	}
	if err := Reduce(data, 0); err == nil {
		t.Fatal("mismatched buffers accepted by Reduce")
	}
	if err := Reduce([][]float32{{1}, {2}}, 7); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

func compressAll(t *testing.T, c compress.Compressor, data [][]float32) [][]*compress.Payload {
	t.Helper()
	out := make([][]*compress.Payload, len(data))
	for i, d := range data {
		out[i] = []*compress.Payload{c.Compress(d, uint64(i))}
	}
	return out
}

func TestAllgatherPayloadsAggregation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := compress.MustNew(compress.Spec{ID: compress.TopK, Ratio: 0.25})
	data := randData(rng, 4, 100)
	payloads := compressAll(t, c, data)

	// The per-node decompressed sum is the aggregation spec.
	want := make([]float64, 100)
	for i := range data {
		dense := make([]float32, 100)
		if err := c.Decompress(payloads[i][0], dense); err != nil {
			t.Fatal(err)
		}
		for j, v := range dense {
			want[j] += float64(v)
		}
	}

	gathered := AllgatherPayloads(payloads)
	for node := range gathered {
		if len(gathered[node]) != 4 {
			t.Fatalf("node %d has %d payloads, want 4", node, len(gathered[node]))
		}
		acc := make([]float32, 100)
		for _, p := range gathered[node] {
			if err := compress.AddDecompressed(c, p, acc); err != nil {
				t.Fatal(err)
			}
		}
		for j := range acc {
			if !close32(acc[j], want[j]) {
				t.Fatalf("node %d aggregate differs at %d", node, j)
			}
		}
	}
}

func TestAlltoallPayloadsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := compress.MustNew(compress.Spec{ID: compress.TopK, Ratio: 0.3})
	nodes, n := 3, 99
	data := randData(rng, nodes, n)
	payloads := compressAll(t, c, data)

	out, bounds, err := AlltoallPayloads(payloads, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	want := sumOfDecompressed(t, c, payloads, n)
	for dst := 0; dst < nodes; dst++ {
		if len(out[dst]) != nodes {
			t.Fatalf("node %d received %d parts, want %d", dst, len(out[dst]), nodes)
		}
		acc := make([]float32, n)
		for _, p := range out[dst] {
			if p.Base < bounds[dst] || p.Base+p.N > bounds[dst+1] {
				t.Fatalf("node %d received region [%d,%d) outside its shard [%d,%d)",
					dst, p.Base, p.Base+p.N, bounds[dst], bounds[dst+1])
			}
			if err := compress.AddDecompressed(c, p, acc); err != nil {
				t.Fatal(err)
			}
		}
		for j := bounds[dst]; j < bounds[dst+1]; j++ {
			if !close32(acc[j], want[j]) {
				t.Fatalf("node %d shard aggregate differs at %d", dst, j)
			}
		}
	}
}

func sumOfDecompressed(t *testing.T, c compress.Compressor, payloads [][]*compress.Payload, n int) []float64 {
	t.Helper()
	want := make([]float64, n)
	for i := range payloads {
		acc := make([]float32, n)
		for _, p := range payloads[i] {
			if err := compress.AddDecompressed(c, p, acc); err != nil {
				t.Fatal(err)
			}
		}
		for j, v := range acc {
			want[j] += float64(v)
		}
	}
	return want
}

func TestAlltoallRegionMismatch(t *testing.T) {
	c := compress.MustNew(compress.Spec{ID: compress.TopK, Ratio: 0.5})
	p := c.Compress(make([]float32, 10), 0)
	if _, _, err := AlltoallPayloads([][]*compress.Payload{{p}}, 0, 20); err == nil {
		t.Fatal("region mismatch accepted")
	}
}

func TestGatherPayloads(t *testing.T) {
	c := compress.MustNew(compress.Spec{ID: compress.EFSignSGD})
	rng := rand.New(rand.NewSource(7))
	data := randData(rng, 4, 50)
	payloads := compressAll(t, c, data)

	gathered := GatherPayloads(payloads, 2)
	for i := range gathered {
		want := 0
		if i == 2 {
			want = 4
		}
		if len(gathered[i]) != want {
			t.Fatalf("node %d holds %d payloads, want %d", i, len(gathered[i]), want)
		}
	}
}
