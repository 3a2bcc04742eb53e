package ddl

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"espresso/internal/compress"
	"espresso/internal/strategy"
)

// seedAggregates is the FNV-64a of every aggregate SyncTensor produced
// at the seed commit (sort-based TopK/DGC, snapshotting rings, copying
// error feedback), computed there by this same test before the data
// plane was rewritten. A change to any of them is a change to the bytes
// training sees, not a refactor.
//
// The gradients come from rand seed 1 because on it no TopK/DGC call has
// two equal non-zero magnitudes straddling the k-th place (about one
// call in 25 000 at these sizes; seeds 3, 5 and 7 have one). There the
// seed commit's unstable sort picked the survivor, so its output was an
// accident of pdqsort and not something to hold the total order to.
var seedAggregates = map[string]uint64{
	"topk(0.25)":    0xef9cc0db5174ae35,
	"dgc(0.25)":     0xef9cc0db5174ae35,
	"randomk(0.25)": 0xd85013f6c2e01df5,
	"efsignsgd":     0x2a11960861ebe94d,
	"terngrad":      0x492461e2265f15dd,
}

// identitySpecs lists the executors the hash covers. QSGD is absent: its
// payloads cannot be bit-sliced, so the divisible options reject it.
var identitySpecs = []compress.Spec{
	{ID: compress.TopK, Ratio: 0.25},
	{ID: compress.DGC, Ratio: 0.25},
	{ID: compress.RandomK, Ratio: 0.25},
	{ID: compress.EFSignSGD},
	{ID: compress.TernGrad},
}

// Every option of TestEveryOptionExecutes, two iterations each so the
// second runs on a stored residual, at a tensor size that shards evenly
// (40) and one that leaves ragged and sub-byte shard edges (1003): the
// aggregates must equal the seed commit's bit for bit, and SyncTensor
// must never write to the caller's gradients.
func TestSyncTensorBitIdenticalToSeed(t *testing.T) {
	c := testCluster()
	for _, spec := range identitySpecs {
		h := fnv.New64a()
		rng := rand.New(rand.NewSource(1))
		for _, n := range []int{40, 1003} {
			for _, opt := range strategy.Enumerate(c) {
				x, err := NewExecutor(c, spec)
				if err != nil {
					t.Fatal(err)
				}
				grads := randGrads(rng, c.TotalGPUs(), n)
				before := cloneGrads(grads)
				for it := uint64(0); it < 2; it++ {
					out, err := x.SyncTensor("t", grads, opt, 7+it)
					if err != nil {
						t.Fatalf("%v / %v: %v", spec, opt, err)
					}
					hashAggregates(h, out)
					for g := range grads {
						if !bitsEqual(grads[g], before[g]) {
							t.Fatalf("%v / %v: SyncTensor wrote to GPU %d's gradient", spec, opt, g)
						}
					}
				}
			}
		}
		if got, want := h.Sum64(), seedAggregates[spec.String()]; got != want {
			t.Errorf("%v: aggregates hash %#016x, seed commit produced %#016x", spec, got, want)
		}
	}
}

// The result contract, on two executors of the same cluster and
// compressor, at a fanned-out size on two workers, three iterations
// each: a second call on an executor may reuse the first call's buffers
// (each call starts after its executor's previous result was scribbled
// over, and must still be right), the two executors never share a
// buffer (scribbling over one's result leaves the other's), a result
// survives a call on the other executor, and the caller's gradients are
// never written.
func TestSyncTensorResultsRecycled(t *testing.T) {
	c := testCluster()
	spec := compress.Spec{ID: compress.DGC, Ratio: 0.25}
	opt := strategy.Option{Hier: true, Steps: []strategy.Step{
		{Act: strategy.Comm, Routine: strategy.ReduceScatter, Scope: strategy.Intra},
		{Act: strategy.Comp},
		{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Inter, Compressed: true},
		{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Intra, Compressed: true, Second: true},
		{Act: strategy.Decomp},
	}}
	const iters = 3
	rng := rand.New(rand.NewSource(11))
	grads := [2][][]float32{randGrads(rng, c.TotalGPUs(), parallelGrain+3), randGrads(rng, c.TotalGPUs(), parallelGrain+3)}
	pristine := [2][][]float32{cloneGrads(grads[0]), cloneGrads(grads[1])}
	sync := func(x *Executor, e, it int) [][]float32 {
		out, err := x.SyncTensor("t", grads[e], opt, uint64(it))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	newExecutor := func() *Executor {
		x, err := NewExecutor(c, spec)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	// want[e][it]: executor e's it-th result, from an executor of its own
	// whose results nobody touches.
	var want [2][][][]float32
	for e := range want {
		x := newExecutor()
		for it := 0; it < iters; it++ {
			want[e] = append(want[e], cloneGrads(sync(x, e, it)))
		}
	}
	check := func(what string, got, want [][]float32) {
		t.Helper()
		for g := range want {
			if !bitsEqual(got[g], want[g]) {
				t.Fatalf("%s: GPU %d's result differs", what, g)
			}
		}
	}
	scribble := func(out [][]float32) {
		for _, o := range out {
			for j := range o {
				o[j] = float32(math.NaN())
			}
		}
	}
	withProcs(2, func() {
		xs := [2]*Executor{newExecutor(), newExecutor()}
		var last [2][][]float32
		for it := 0; it < iters; it++ {
			for e, x := range xs {
				last[e] = sync(x, e, it)
				check(fmt.Sprintf("executor %d iteration %d", e, it), last[e], want[e][it])
			}
			check(fmt.Sprintf("executor 0 iteration %d after a call on executor 1", it), last[0], want[0][it])
			scribble(last[0])
			check(fmt.Sprintf("executor 1 iteration %d after executor 0's result was overwritten", it), last[1], want[1][it])
			scribble(last[1])
		}
	})
	for e := range grads {
		check(fmt.Sprintf("executor %d's gradients", e), grads[e], pristine[e])
	}
}

func cloneGrads(grads [][]float32) [][]float32 {
	out := make([][]float32, len(grads))
	for g := range grads {
		out[g] = append([]float32(nil), grads[g]...)
	}
	return out
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func hashAggregates(h io.Writer, out [][]float32) {
	var b [4]byte
	for _, o := range out {
		for _, v := range o {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
}

// A steady-state compressed SyncTensor allocates small bookkeeping —
// group lists, payload lists — and nothing that grows with the tensor:
// no result buffers (they are recycled), no per-step chunk snapshots, no
// corrected-gradient or decompression temporaries, no formatted
// error-feedback keys. The count's ceiling is the measured count (72)
// plus slack; the bytes' ceiling is a tenth of the results' bytes, room
// for the one large allocation left, a refill of the result pool after
// a collection emptied it.
func TestSyncTensorSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch at random under the race detector")
	}
	c := testCluster()
	x, err := NewExecutor(c, compress.Spec{ID: compress.DGC, Ratio: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	opt := strategy.Option{Hier: true, Steps: []strategy.Step{
		{Act: strategy.Comm, Routine: strategy.ReduceScatter, Scope: strategy.Intra},
		{Act: strategy.Comp},
		{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Inter, Compressed: true},
		{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Intra, Compressed: true, Second: true},
		{Act: strategy.Decomp},
	}}
	const n = 1 << 14
	grads := randGrads(rand.New(rand.NewSource(3)), c.TotalGPUs(), n)
	sync := func() {
		if _, err := x.SyncTensor("t", grads, opt, 1); err != nil {
			t.Fatal(err)
		}
	}
	sync() // first use allocates residuals and payload storage
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(20, sync)
	runtime.ReadMemStats(&after)
	if allocs > 90 {
		t.Errorf("steady-state SyncTensor makes %v allocations, ceiling 90", allocs)
	}
	// 21 calls (AllocsPerRun warms up once) of four n-element results.
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / 21
	if results := float64(c.TotalGPUs() * 4 * n); perCall > 0.1*results {
		t.Errorf("steady-state SyncTensor allocates %.0f bytes, more than 0.1x its %0.f bytes of results", perCall, results)
	}
}
