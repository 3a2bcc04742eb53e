package ddl

import (
	"math"
	"math/rand"
	"testing"

	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/obs"
	"espresso/internal/strategy"
)

// testCluster is a 2x2 cluster small enough to execute every option.
func testCluster() *cluster.Cluster {
	c := cluster.NVLinkTestbed(2)
	c.GPUsPerMachine = 2
	return c
}

func randGrads(rng *rand.Rand, gpus, n int) [][]float32 {
	out := make([][]float32, gpus)
	for g := range out {
		out[g] = make([]float32, n)
		for j := range out[g] {
			out[g][j] = float32(rng.NormFloat64())
		}
	}
	return out
}

func exactSum(grads [][]float32) []float64 {
	sum := make([]float64, len(grads[0]))
	for _, g := range grads {
		for j, v := range g {
			sum[j] += float64(v)
		}
	}
	return sum
}

// Every option in the search space must execute to completion with all
// GPUs agreeing on the result; uncompressed options must produce the
// exact sum.
func TestEveryOptionExecutes(t *testing.T) {
	c := testCluster()
	rng := rand.New(rand.NewSource(1))
	for _, spec := range []compress.Spec{
		{ID: compress.TopK, Ratio: 0.25},
		{ID: compress.EFSignSGD},
	} {
		x, err := NewExecutor(c, spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range strategy.Enumerate(c) {
			grads := randGrads(rng, c.TotalGPUs(), 40)
			want := exactSum(grads)
			out, err := x.SyncTensor("t", grads, opt, 7)
			if err != nil {
				t.Fatalf("%v / %v: %v", spec, opt, err)
			}
			for g := range out {
				if len(out[g]) != 40 {
					t.Fatalf("%v: GPU %d result has %d elements", opt, g, len(out[g]))
				}
				for j := range out[g] {
					if out[g][j] != out[0][j] {
						t.Fatalf("%v: GPUs disagree at %d: %v vs %v", opt, j, out[g][j], out[0][j])
					}
					if math.IsNaN(float64(out[g][j])) || math.IsInf(float64(out[g][j]), 0) {
						t.Fatalf("%v: non-finite value", opt)
					}
				}
			}
			if !opt.Compressed() {
				for j := range out[0] {
					if math.Abs(float64(out[0][j])-want[j]) > 1e-3 {
						t.Fatalf("%v: uncompressed result differs from sum at %d: %v vs %v",
							opt, j, out[0][j], want[j])
					}
				}
			}
			// Fresh error-feedback state per option.
			x, err = NewExecutor(c, spec)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// The indivisible compressed scheme has a computable reference: the sum
// of each GPU's (error-fed) compressed gradient, decompressed.
func TestIndivisibleCompressedMatchesReference(t *testing.T) {
	c := testCluster()
	spec := compress.Spec{ID: compress.TopK, Ratio: 0.5}
	x, err := NewExecutor(c, spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := strategy.Option{Steps: []strategy.Step{
		{Act: strategy.Comp},
		{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Flat, Compressed: true},
		{Act: strategy.Decomp},
	}}
	rng := rand.New(rand.NewSource(2))
	grads := randGrads(rng, c.TotalGPUs(), 32)

	// Reference: compress each gradient independently (fresh EF state,
	// same seeds the executor will use), then sum the decompressions.
	comp := compress.MustNew(spec)
	ref := make([]float32, 32)
	for g := range grads {
		ef := compress.NewErrorFeedback(comp)
		p, err := ef.Compress(compress.Key{Name: "t", Hi: 32}, grads[g], 7+uint64(g))
		if err != nil {
			t.Fatal(err)
		}
		if err := compress.AddDecompressed(comp, p, ref); err != nil {
			t.Fatal(err)
		}
	}

	out, err := x.SyncTensor("t", grads, opt, 7)
	if err != nil {
		t.Fatal(err)
	}
	for j := range ref {
		if math.Abs(float64(out[0][j]-ref[j])) > 1e-4 {
			t.Fatalf("element %d: executor %v, reference %v", j, out[0][j], ref[j])
		}
	}
}

// Error feedback across iterations: with a constant gradient and
// aggressive sparsification, the per-iteration average of synchronized
// gradients approaches the true sum.
func TestErrorFeedbackConvergesAcrossIterations(t *testing.T) {
	c := testCluster()
	x, err := NewExecutor(c, compress.Spec{ID: compress.RandomK, Ratio: 0.25})
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
	n, iters := 64, 120
	gpus := c.TotalGPUs()
	acc := make([]float64, n)
	for it := 0; it < iters; it++ {
		grads := make([][]float32, gpus)
		for g := range grads {
			grads[g] = make([]float32, n)
			for j := range grads[g] {
				grads[g][j] = 1
			}
		}
		out, err := x.SyncTensor("t", grads, opt, uint64(it))
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range out[0] {
			acc[j] += float64(v)
		}
	}
	wantPer := float64(gpus) // each element of the true sum each iteration
	for j, v := range acc {
		avg := v / float64(iters)
		if math.Abs(avg-wantPer) > 0.35*wantPer {
			t.Fatalf("element %d: average synchronized value %v, want ~%v", j, avg, wantPer)
		}
	}
}

func TestSyncTensorValidation(t *testing.T) {
	c := testCluster()
	x, err := NewExecutor(c, compress.Spec{ID: compress.EFSignSGD})
	if err != nil {
		t.Fatal(err)
	}
	opt := strategy.NoCompression(c)
	if _, err := x.SyncTensor("t", randGrads(rand.New(rand.NewSource(3)), 2, 8), opt, 0); err == nil {
		t.Fatal("wrong GPU count accepted")
	}
	bad := [][]float32{make([]float32, 8), make([]float32, 8), make([]float32, 8), make([]float32, 9)}
	if _, err := x.SyncTensor("t", bad, opt, 0); err == nil {
		t.Fatal("ragged gradients accepted")
	}
	if _, err := x.SyncTensor("t", randGrads(rand.New(rand.NewSource(4)), 4, 8), strategy.Option{}, 0); err == nil {
		t.Fatal("invalid option accepted")
	}
}

func TestNewExecutorValidation(t *testing.T) {
	bad := cluster.NVLinkTestbed(2)
	bad.Machines = 0
	if _, err := NewExecutor(bad, compress.Spec{ID: compress.FP32}); err == nil {
		t.Fatal("invalid cluster accepted")
	}
	if _, err := NewExecutor(cluster.NVLinkTestbed(2), compress.Spec{ID: compress.DGC}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// Single-machine and single-GPU-per-machine clusters degenerate cleanly.
func TestDegenerateClusters(t *testing.T) {
	for _, c := range []*cluster.Cluster{
		func() *cluster.Cluster { c := cluster.NVLinkTestbed(1); c.GPUsPerMachine = 4; return c }(),
		func() *cluster.Cluster { c := cluster.NVLinkTestbed(4); c.GPUsPerMachine = 1; return c }(),
	} {
		x, err := NewExecutor(c, compress.Spec{ID: compress.TopK, Ratio: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for _, opt := range strategy.EnumerateGPU(c) {
			grads := randGrads(rng, c.TotalGPUs(), 24)
			out, err := x.SyncTensor("t", grads, opt, 1)
			if err != nil {
				t.Fatalf("%v on %v: %v", opt, c, err)
			}
			for g := range out {
				for j := range out[g] {
					if out[g][j] != out[0][j] {
						t.Fatalf("%v: GPUs disagree", opt)
					}
				}
			}
		}
	}
}

// Tensors smaller than the GPU count survive divisible schemes: some
// shards are empty.
func TestTinyTensorsSurviveSharding(t *testing.T) {
	c := testCluster() // 4 GPUs
	x, err := NewExecutor(c, compress.Spec{ID: compress.DGC, Ratio: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{1, 2, 3, 5} {
		for _, opt := range strategy.EnumerateGPU(c) {
			grads := randGrads(rng, c.TotalGPUs(), n)
			out, err := x.SyncTensor("tiny", grads, opt, 3)
			if err != nil {
				t.Fatalf("n=%d %v: %v", n, opt, err)
			}
			for g := range out {
				if len(out[g]) != n {
					t.Fatalf("n=%d %v: GPU %d has %d elements", n, opt, g, len(out[g]))
				}
			}
		}
	}
}

// The headline claim of §2.3 on real bytes: sparsification at 1% saves
// ~98% of the inter-machine gradient exchange relative to FP32.
func TestTrafficSavingsOnRealBytes(t *testing.T) {
	c := testCluster()
	n := 10000

	measure := func(spec compress.Spec, opt strategy.Option) Traffic {
		x, err := NewExecutor(c, spec)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(21))
		if _, err := x.SyncTensor("t", randGrads(rng, c.TotalGPUs(), n), opt, 1); err != nil {
			t.Fatal(err)
		}
		return x.Traffic()
	}

	fp32 := measure(compress.Spec{ID: compress.FP32}, strategy.NoCompression(c))
	comp := measure(compress.Spec{ID: compress.RandomK, Ratio: 0.01}, strategy.Option{
		Hier: true, Steps: []strategy.Step{
			{Act: strategy.Comm, Routine: strategy.ReduceScatter, Scope: strategy.Intra},
			{Act: strategy.Comp},
			{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Inter, Compressed: true},
			{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Intra, Compressed: true, Second: true},
			{Act: strategy.Decomp},
		},
	})
	if fp32.InterBytes() == 0 || fp32.IntraBytes() == 0 {
		t.Fatalf("FP32 traffic not accounted: %+v", fp32)
	}
	saving := 1 - float64(comp.InterBytes())/float64(fp32.InterBytes())
	if saving < 0.90 {
		t.Fatalf("inter-machine saving = %.1f%%, want ~97-98%% for 1%% sparsification", 100*saving)
	}
	t.Logf("inter traffic: fp32=%d compressed=%d (saving %.1f%%)", fp32.InterBytes(), comp.InterBytes(), 100*saving)

	// Counters reset cleanly.
	x, _ := NewExecutor(c, compress.Spec{ID: compress.FP32})
	x.ResetTraffic()
	if x.Traffic().Total() != 0 {
		t.Fatal("fresh executor has traffic")
	}
}

// FP32 hierarchical traffic matches the analytic collective volumes:
// intra = RS + AG = 2(k-1)/k * S per machine group; inter = ring
// allreduce 2(N-1)/N * S per lane group.
func TestFP32TrafficMatchesFormula(t *testing.T) {
	c := testCluster() // N=2, k=2
	n := 8192
	x, err := NewExecutor(c, compress.Spec{ID: compress.FP32})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	if _, err := x.SyncTensor("t", randGrads(rng, 4, n), strategy.NoCompression(c), 0); err != nil {
		t.Fatal(err)
	}
	S := int64(4 * n)
	// Intra: per machine, RS of S ((k-1)*S group total = S) and AG of
	// shards ((k-1)*S = S); two machines.
	wantIntra := 2 * (S + S)
	// Inter: two lane groups, each an allreduce of the S/2 shard:
	// 2(N-1)*S/2 = S each.
	wantInter := 2 * S
	got := x.Traffic()
	if got.IntraBytes() != wantIntra || got.InterBytes() != wantInter {
		t.Fatalf("traffic = %+v, want intra %d inter %d", got, wantIntra, wantInter)
	}
}

// The per-phase traffic breakdown separates dense FP32 bytes from encoded
// compressed bytes in each communication domain, and a compressed strategy
// moves strictly fewer wire bytes than the dense baseline end to end.
func TestTrafficPhaseBreakdown(t *testing.T) {
	c := testCluster()
	n := 10000

	measure := func(spec compress.Spec, opt strategy.Option) (Traffic, *obs.Metrics) {
		x, err := NewExecutor(c, spec)
		if err != nil {
			t.Fatal(err)
		}
		x.Metrics = obs.NewMetrics()
		rng := rand.New(rand.NewSource(7))
		if _, err := x.SyncTensor("t", randGrads(rng, c.TotalGPUs(), n), opt, 1); err != nil {
			t.Fatal(err)
		}
		return x.Traffic(), x.Metrics
	}

	dense, _ := measure(compress.Spec{ID: compress.FP32}, strategy.NoCompression(c))
	if dense.Intra.CompressedBytes != 0 || dense.Inter.CompressedBytes != 0 {
		t.Fatalf("dense baseline shows compressed bytes: %+v", dense)
	}
	if dense.Intra.RawBytes == 0 || dense.Inter.RawBytes == 0 {
		t.Fatalf("dense baseline missing raw bytes: %+v", dense)
	}

	// Intra stays dense (reduce-scatter / allgather2), inter carries the
	// compressed payloads — the per-phase split must reflect exactly that.
	comp, mx := measure(compress.Spec{ID: compress.RandomK, Ratio: 0.01}, strategy.Option{
		Hier: true, Steps: []strategy.Step{
			{Act: strategy.Comm, Routine: strategy.ReduceScatter, Scope: strategy.Intra},
			{Act: strategy.Comp},
			{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Inter, Compressed: true},
			{Act: strategy.Decomp},
			{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Intra, Second: true},
		},
	})
	if comp.Intra.CompressedBytes != 0 {
		t.Errorf("intra domain should be all-dense here: %+v", comp.Intra)
	}
	if comp.Inter.RawBytes != 0 || comp.Inter.CompressedBytes == 0 {
		t.Errorf("inter domain should be all-compressed here: %+v", comp.Inter)
	}
	if comp.Total() >= dense.Total() {
		t.Errorf("compressed strategy moved %d wire bytes, dense baseline %d — no saving",
			comp.Total(), dense.Total())
	}
	if comp.Inter.Total() >= dense.Inter.Total() {
		t.Errorf("inter bytes: compressed %d >= dense %d", comp.Inter.Total(), dense.Inter.Total())
	}

	// The metrics registry mirrors the Traffic accounting byte for byte,
	// and the ratio histogram saw every compression operation.
	snap := mx.Snapshot()
	if got := snap.Counters["wire.inter.compressed_bytes"]; got != comp.Inter.CompressedBytes {
		t.Errorf("metric wire.inter.compressed_bytes = %d, want %d", got, comp.Inter.CompressedBytes)
	}
	if got := snap.Counters["wire.intra.raw_bytes"]; got != comp.Intra.RawBytes {
		t.Errorf("metric wire.intra.raw_bytes = %d, want %d", got, comp.Intra.RawBytes)
	}
	h, ok := snap.Histograms["compress.ratio"]
	if !ok || h.Count != int64(c.TotalGPUs()) {
		t.Errorf("compress.ratio observations = %+v, want one per GPU (%d)", h, c.TotalGPUs())
	}
	if h.Max > 0.2 {
		t.Errorf("1%% sparsification ratio max = %v, want well under 0.2", h.Max)
	}
}
