package ddl

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"espresso/internal/compress"
	"espresso/internal/obs"
	"espresso/internal/strategy"
)

// withProcs runs f at GOMAXPROCS procs, which is SyncTensor's worker
// count, and restores the setting.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// Every 29th option (a spread over the 1,477 of the 2x2 cluster), every
// compressor of the identity hash, two iterations so the second
// compresses on a stored residual: at GOMAXPROCS 2 and 4 the
// aggregates, traffic and metrics equal GOMAXPROCS 1's bit for bit. The
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
			run := func(procs int) ([][][]float32, Traffic, []byte) {
				x, err := NewExecutor(c, spec)
				if err != nil {
					t.Fatal(err)
				}
				x.Metrics = obs.NewMetrics()
				var outs [][][]float32
				withProcs(procs, func() {
					for it := uint64(0); it < 2; it++ {
						out, err := x.SyncTensor("t", grads, opt, 7+it)
						if err != nil {
							t.Fatalf("%v / %v at GOMAXPROCS %d: %v", spec, opt, procs, err)
						}
						outs = append(outs, cloneGrads(out)) // the next call may reuse out
					}
				})
				var metrics bytes.Buffer
				if err := x.Metrics.WriteJSON(&metrics); err != nil {
					t.Fatal(err)
				}
				return outs, x.Traffic(), metrics.Bytes()
			}
			wantOut, wantTraffic, wantMetrics := run(1)
			for _, procs := range []int{2, 4} {
				out, traffic, metrics := run(procs)
				for it := range out {
					for g := range out[it] {
						if !bitsEqual(out[it][g], wantOut[it][g]) {
							t.Fatalf("%v / %v: iteration %d GPU %d aggregate differs at GOMAXPROCS %d", spec, opt, it, g, procs)
						}
					}
				}
				if traffic != wantTraffic || !bytes.Equal(metrics, wantMetrics) {
					t.Fatalf("%v / %v at GOMAXPROCS %d: traffic %+v metrics %s, want %+v %s",
						spec, opt, procs, traffic, metrics, wantTraffic, wantMetrics)
				}
			}
		}
	}
}

// mallocsPerCall is testing.AllocsPerRun at the caller's GOMAXPROCS
// (AllocsPerRun measures at GOMAXPROCS 1, where SyncTensor does not fan
// out), unrounded.
func mallocsPerCall(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// A fan-out costs no allocation: a steady-state call that copies,
// compresses and decompresses on two workers allocates what it does on
// one. A call fans out three times, so an allocation per fan-out adds
// at least three; the margin of one absorbs the kernels' sync.Pool
// caches, which are per P and now and then miss once a helper runs on
// the other one.
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
	for _, procs := range []int{1, 2} {
		x, err := NewExecutor(c, compress.Spec{ID: compress.EFSignSGD})
		if err != nil {
			t.Fatal(err)
		}
		sync := func() {
			if _, err := x.SyncTensor("t", grads, opt, 1); err != nil {
				t.Fatal(err)
			}
		}
		withProcs(procs, func() {
			sync() // first use allocates residuals, payload storage and states
			allocs[procs] = mallocsPerCall(200, sync)
		})
	}
	if allocs[2] >= allocs[1]+1 {
		t.Errorf("a call makes %v allocations on two workers, %v on one", allocs[2], allocs[1])
	}
}

// BenchmarkSyncTensor times one tensor's synchronization on the 2x2
// cluster at 2^11 to 2^15 elements per GPU, on the caller alone and
// fanned out over every CPU, whatever parallelGrain says: FP32 fans out
// only the GPUs' copies, DGC its compressions and decompressions too.
func BenchmarkSyncTensor(b *testing.B) {
	c := testCluster()
	systems := []struct {
		spec compress.Spec
		opt  strategy.Option
	}{
		{compress.Spec{ID: compress.FP32}, strategy.NoCompression(c)},
		{compress.Spec{ID: compress.DGC, Ratio: 0.01}, strategy.Option{Steps: []strategy.Step{
			{Act: strategy.Comp},
			{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Flat, Compressed: true},
			{Act: strategy.Decomp},
		}}},
	}
	defer func(grain int) { parallelGrain = grain }(parallelGrain)
	for _, sys := range systems {
		for n := 1 << 11; n <= 1<<15; n <<= 1 {
			grads := randGrads(rand.New(rand.NewSource(1)), c.TotalGPUs(), n)
			for _, mode := range []struct {
				name  string
				grain int
			}{{"inline", math.MaxInt}, {"fanout", 0}} {
				b.Run(fmt.Sprintf("%v/n=%d/%s", sys.spec, n, mode.name), func(b *testing.B) {
					parallelGrain = mode.grain
					x, err := NewExecutor(c, sys.spec)
					if err != nil {
						b.Fatal(err)
					}
					for i := 0; i <= b.N; i++ {
						if i == 1 {
							b.ResetTimer() // the first call allocates the residuals
						}
						if _, err := x.SyncTensor("t", grads, sys.opt, uint64(i)); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
