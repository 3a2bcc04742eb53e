package collective

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"espresso/internal/compress"
)

// --- reference: the rings as first written, every step snapshotting its
// outgoing chunks before any of them is delivered ---

type ringMsg struct {
	to, chunk int
	vals      []float32
}

// snapshotStep gathers what every node sends in one ring step, where node
// i sends chunkOf(i) to node i+1.
func snapshotStep(data [][]float32, bounds []int, chunkOf func(i int) int) []ringMsg {
	nodes := len(data)
	msgs := make([]ringMsg, 0, nodes)
	for i := 0; i < nodes; i++ {
		chunk := (chunkOf(i)%nodes + nodes) % nodes
		vals := append([]float32(nil), data[i][bounds[chunk]:bounds[chunk+1]]...)
		msgs = append(msgs, ringMsg{to: (i + 1) % nodes, chunk: chunk, vals: vals})
	}
	return msgs
}

func refReduceScatter(data [][]float32) []int {
	nodes := len(data)
	bounds := compress.ShardBounds(len(data[0]), nodes)
	for s := 0; s < nodes-1; s++ {
		for _, m := range snapshotStep(data, bounds, func(i int) int { return i - 1 - s }) {
			dst := data[m.to][bounds[m.chunk]:]
			for j, v := range m.vals {
				dst[j] += v
			}
		}
	}
	return bounds
}

func refAllgatherShards(data [][]float32, bounds []int) {
	nodes := len(data)
	for s := 0; s < nodes-1; s++ {
		for _, m := range snapshotStep(data, bounds, func(i int) int { return i - s }) {
			copy(data[m.to][bounds[m.chunk]:], m.vals)
		}
	}
}

func cloneData(data [][]float32) [][]float32 {
	out := make([][]float32, len(data))
	for i := range data {
		out[i] = append([]float32(nil), data[i]...)
	}
	return out
}

// sameBits compares whole buffers, scratch regions included: the in-place
// rings must leave every byte where the snapshotting ones did.
func sameBits(t *testing.T, what string, got, want [][]float32) {
	t.Helper()
	for i := range want {
		for j := range want[i] {
			if math.Float32bits(got[i][j]) != math.Float32bits(want[i][j]) {
				t.Fatalf("%s: node %d element %d is %v (%#x), the snapshotting ring gives %v (%#x)", what, i, j,
					got[i][j], math.Float32bits(got[i][j]), want[i][j], math.Float32bits(want[i][j]))
			}
		}
	}
}

// The in-place ring steps equal the snapshotting reference bit for bit —
// same additions in the same order — for 1-5 nodes and lengths that
// include fewer elements than nodes (empty chunks) and ragged chunks.
func TestRingsBitIdenticalToSnapshotting(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for nodes := 1; nodes <= 5; nodes++ {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 64, 1001} {
			what := func(op string) string { return fmt.Sprintf("%s nodes=%d n=%d", op, nodes, n) }
			src := randData(rng, nodes, n)

			got, want := cloneData(src), cloneData(src)
			bounds, err := ReduceScatter(got)
			if err != nil {
				t.Fatal(err)
			}
			refBounds := refReduceScatter(want)
			sameBits(t, what("ReduceScatter"), got, want)

			if err := AllgatherShards(got, bounds); err != nil {
				t.Fatal(err)
			}
			refAllgatherShards(want, refBounds)
			sameBits(t, what("AllgatherShards"), got, want)

			got, want = cloneData(src), cloneData(src)
			if err := Allreduce(got); err != nil {
				t.Fatal(err)
			}
			if nodes > 1 {
				refAllgatherShards(want, refReduceScatter(want))
			}
			sameBits(t, what("Allreduce"), got, want)
		}
	}
}
