package ddl

import (
	"bytes"
	"math/rand"
	"testing"

	"espresso/internal/compress"
	"espresso/internal/obs"
	"espresso/internal/strategy"
)

// Every 29th option (a spread over the 1,477 of the 2x2 cluster), every
// compressor of the identity hash, two iterations so the second
// compresses on a stored residual: at Parallelism 2 and 4 the
// aggregates, traffic and metrics equal Parallelism 1's bit for bit. The
// tensor is past parallelGrain, so the copies, compressions and
// decompressions really fan out, and ragged, so shard edges fall
// mid-word.
func TestSyncTensorIdenticalAtEveryParallelism(t *testing.T) {
	c := testCluster()
	specs := identitySpecs
	if testing.Short() {
		specs = specs[3:4] // EFSignSGD: the dense-payload kernels
	}
	grads := randGrads(rand.New(rand.NewSource(1)), c.TotalGPUs(), parallelGrain+3)
	options := strategy.Enumerate(c)
	for _, spec := range specs {
		for k := 0; k < len(options); k += 29 {
			opt := options[k]
			run := func(workers int) ([][][]float32, Traffic, []byte) {
				x, err := NewExecutor(c, spec)
				if err != nil {
					t.Fatal(err)
				}
				x.Parallelism, x.Metrics = workers, obs.NewMetrics()
				var outs [][][]float32
				for it := uint64(0); it < 2; it++ {
					out, err := x.SyncTensor("t", grads, opt, 7+it)
					if err != nil {
						t.Fatalf("%v / %v at Parallelism %d: %v", spec, opt, workers, err)
					}
					outs = append(outs, out)
				}
				var metrics bytes.Buffer
				if err := x.Metrics.WriteJSON(&metrics); err != nil {
					t.Fatal(err)
				}
				return outs, x.Traffic(), metrics.Bytes()
			}
			wantOut, wantTraffic, wantMetrics := run(1)
			for _, workers := range []int{2, 4} {
				out, traffic, metrics := run(workers)
				for it := range out {
					for g := range out[it] {
						if !bitsEqual(out[it][g], wantOut[it][g]) {
							t.Fatalf("%v / %v: iteration %d GPU %d aggregate differs at Parallelism %d", spec, opt, it, g, workers)
						}
					}
				}
				if traffic != wantTraffic || !bytes.Equal(metrics, wantMetrics) {
					t.Fatalf("%v / %v at Parallelism %d: traffic %+v metrics %s, want %+v %s",
						spec, opt, workers, traffic, metrics, wantTraffic, wantMetrics)
				}
			}
		}
	}
}

// A fan-out costs no allocation: a steady-state call that copies,
// compresses and decompresses on two workers allocates exactly what it
// does on one.
func TestSyncTensorFanOutAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch at random under the race detector")
	}
	c := testCluster()
	opt := strategy.Option{Steps: []strategy.Step{
		{Act: strategy.Comp},
		{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Flat, Compressed: true},
		{Act: strategy.Decomp},
	}}
	grads := randGrads(rand.New(rand.NewSource(3)), c.TotalGPUs(), 1<<14)
	allocs := map[int]float64{}
	for _, workers := range []int{1, 2} {
		x, err := NewExecutor(c, compress.Spec{ID: compress.EFSignSGD})
		if err != nil {
			t.Fatal(err)
		}
		x.Parallelism = workers
		sync := func() {
			if _, err := x.SyncTensor("t", grads, opt, 1); err != nil {
				t.Fatal(err)
			}
		}
		sync() // first use allocates residuals, payload storage and states
		allocs[workers] = testing.AllocsPerRun(50, sync)
	}
	if allocs[2] > allocs[1] {
		t.Errorf("a call makes %v allocations on two workers, %v on one", allocs[2], allocs[1])
	}
}
