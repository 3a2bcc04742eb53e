// Package collective implements the collective communication routines of
// Table 2 over in-memory per-node buffers, using the real distributed
// algorithms (ring reduce-scatter/allgather, binomial trees, pairwise
// alltoall) executed step by step. The DDL engine uses these to move
// genuine gradient bytes; the tests pin each routine to its sequential
// specification.
//
// Conventions: data[i] is node i's buffer. Dense routines operate on
// float32 slices of equal length; payload routines move opaque compressed
// payloads (aggregation of compressed data is not associative, so
// payloads are only ever concatenated, never summed).
package collective

import (
	"fmt"

	"espresso/internal/compress"
)

func checkDense(data [][]float32) (int, error) {
	if len(data) == 0 {
		return 0, fmt.Errorf("collective: no participants")
	}
	n := len(data[0])
	for i, d := range data {
		if len(d) != n {
			return 0, fmt.Errorf("collective: node %d has %d elements, node 0 has %d", i, len(d), n)
		}
	}
	return n, nil
}

// Allreduce leaves every node with the element-wise sum, using the ring
// algorithm: a reduce-scatter pass of n-1 steps followed by an allgather
// pass of n-1 steps over 1/n-sized chunks.
func Allreduce(data [][]float32) error {
	nodes := len(data)
	if _, err := checkDense(data); err != nil {
		return err
	}
	if nodes == 1 {
		return nil
	}
	bounds, err := ReduceScatter(data)
	if err != nil {
		return err
	}
	return AllgatherShards(data, bounds)
}

// ReduceScatter runs the ring reduce-scatter: after n-1 steps node i owns
// the fully aggregated chunk i (in place, within its buffer). It returns
// the chunk boundaries. Other regions of each buffer hold partial sums
// and must be treated as scratch.
func ReduceScatter(data [][]float32) ([]int, error) {
	nodes := len(data)
	n, err := checkDense(data)
	if err != nil {
		return nil, err
	}
	bounds := compress.ShardBounds(n, nodes)
	// Step s: node i sends chunk (i-1-s) to node i+1, which
	// accumulates; after n-1 steps node i owns chunk i fully reduced.
	// The sends of a step are simultaneous, and need no snapshot: the
	// chunk node i+1 receives into is not the chunk (i-s) it sends.
	for s := 0; s < nodes-1; s++ {
		for i := 0; i < nodes; i++ {
			chunk := ((i-1-s)%nodes + nodes) % nodes
			lo, hi := bounds[chunk], bounds[chunk+1]
			dst := data[(i+1)%nodes][lo:hi]
			for j, v := range data[i][lo:hi] {
				dst[j] += v
			}
		}
	}
	return bounds, nil
}

// AllgatherShards runs the ring allgather: node i starts owning
// authoritative chunk i (per bounds) and after n-1 steps every node has
// every chunk.
func AllgatherShards(data [][]float32, bounds []int) error {
	nodes := len(data)
	if _, err := checkDense(data); err != nil {
		return err
	}
	if len(bounds) != nodes+1 {
		return fmt.Errorf("collective: %d bounds for %d nodes", len(bounds), nodes)
	}
	// Step s: node i forwards chunk (i-s) to node i+1, which this step
	// sends chunk (i+1-s): again disjoint, so the copy is direct.
	for s := 0; s < nodes-1; s++ {
		for i := 0; i < nodes; i++ {
			chunk := ((i-s)%nodes + nodes) % nodes
			lo, hi := bounds[chunk], bounds[chunk+1]
			copy(data[(i+1)%nodes][lo:hi], data[i][lo:hi])
		}
	}
	return nil
}

// Reduce aggregates every node's buffer into root's over a binomial tree.
// Non-root buffers are left holding partial sums (scratch).
func Reduce(data [][]float32, root int) error {
	nodes := len(data)
	if _, err := checkDense(data); err != nil {
		return err
	}
	if root < 0 || root >= nodes {
		return fmt.Errorf("collective: root %d out of range", root)
	}
	// Rotate so the root is rank 0, then fold by doubling distance.
	node := func(r int) int { return (r + root) % nodes }
	for dist := 1; dist < nodes; dist *= 2 {
		for r := 0; r+dist < nodes; r += 2 * dist {
			dst, src := data[node(r)], data[node(r+dist)]
			for j := range dst {
				dst[j] += src[j]
			}
		}
	}
	return nil
}

// Broadcast copies root's buffer to every node over a binomial tree.
func Broadcast(data [][]float32, root int) error {
	nodes := len(data)
	if _, err := checkDense(data); err != nil {
		return err
	}
	if root < 0 || root >= nodes {
		return fmt.Errorf("collective: root %d out of range", root)
	}
	node := func(r int) int { return (r + root) % nodes }
	// Highest power of two below nodes.
	top := 1
	for top*2 < nodes {
		top *= 2
	}
	for dist := top; dist >= 1; dist /= 2 {
		for r := 0; r+dist < nodes; r += 2 * dist {
			copy(data[node(r+dist)], data[node(r)])
		}
	}
	return nil
}

// AllgatherPayloads gives every node the concatenation of all nodes'
// payload lists (ring-ordered deterministically by source rank) — the
// indivisible scheme for compressed tensors.
func AllgatherPayloads(in [][]*compress.Payload) [][]*compress.Payload {
	nodes := len(in)
	out := make([][]*compress.Payload, nodes)
	for i := range out {
		all := make([]*compress.Payload, 0)
		for src := 0; src < nodes; src++ {
			all = append(all, in[src]...)
		}
		out[i] = all
	}
	return out
}

// AlltoallPayloads slices each node's payloads into per-destination parts
// along dense boundaries and delivers part j to node j — the first step
// of the divisible scheme for compressed tensors (Figure 4). lo/hi are
// the dense element bounds of the region the payloads cover.
func AlltoallPayloads(in [][]*compress.Payload, lo, hi int) ([][]*compress.Payload, []int, error) {
	nodes := len(in)
	bounds := compress.ShardBounds(hi-lo, nodes)
	out := make([][]*compress.Payload, nodes)
	for src := 0; src < nodes; src++ {
		for _, p := range in[src] {
			if p.Base != lo || p.N != hi-lo {
				return nil, nil, fmt.Errorf("collective: payload region [%d,%d) does not match alltoall region [%d,%d)",
					p.Base, p.Base+p.N, lo, hi)
			}
			for dst := 0; dst < nodes; dst++ {
				part, err := compress.Slice(p, bounds[dst], bounds[dst+1])
				if err != nil {
					return nil, nil, err
				}
				out[dst] = append(out[dst], part)
			}
		}
	}
	return out, bounds, nil
}

// GatherPayloads collects every node's payloads at root.
func GatherPayloads(in [][]*compress.Payload, root int) [][]*compress.Payload {
	nodes := len(in)
	out := make([][]*compress.Payload, nodes)
	all := make([]*compress.Payload, 0)
	for src := 0; src < nodes; src++ {
		all = append(all, in[src]...)
	}
	out[root] = all
	return out
}
