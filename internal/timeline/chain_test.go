package timeline

import (
	"testing"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/strategy"
)

// handCluster has round numbers so every chain duration can be verified
// by hand: 4 machines x 4 GPUs, 10 GB/s everywhere, no latency, free
// staging at 10 GB/s.
func handCluster() *cluster.Cluster {
	return &cluster.Cluster{
		Machines: 4, GPUsPerMachine: 4,
		Intra: cluster.NVLink, IntraBandwidth: 10e9, InterBandwidth: 10e9,
		IntraLatency: 0, InterLatency: 0,
		PCIeHostBandwidth: 10e9, CPUCores: 48,
	}
}

// handEngine uses FP32 so compression-time terms vanish and only the
// communication accounting is under test.
func handEngine(t *testing.T, elems int) *Engine {
	t.Helper()
	m := model.Synthetic("hand", []int{elems}, []time.Duration{0}, 0)
	cm, err := cost.NewModels(handCluster(), compress.Spec{ID: compress.FP32})
	if err != nil {
		t.Fatal(err)
	}
	return New(m, handCluster(), cm)
}

// ms10 converts "bytes at 10 GB/s" into a duration.
func at10GBps(bytes float64) time.Duration {
	return time.Duration(bytes / 10e9 * float64(time.Second))
}

func chainDurations(t *testing.T, e *Engine, opt strategy.Option) []time.Duration {
	t.Helper()
	jobs, err := e.chainInto(0, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]time.Duration, len(jobs))
	for i, j := range jobs {
		out[i] = j.dur
	}
	return out
}

// The FP32 hierarchical baseline: S = 40 MB, k = 4, N = 4.
//
//	intra reduce-scatter: 3 steps of S/4 each GPU   -> 3 * 10MB / 10GB/s = 3ms
//	inter allreduce:      ring over N of lanes*S/4=S -> 2*3 * (S/4)/B    = 24ms
//	intra allgather:      3 steps of S/4            -> 3ms
func TestChainHierFP32HandMath(t *testing.T) {
	elems := 10 << 20 // 40 MB
	e := handEngine(t, elems)
	durs := chainDurations(t, e, strategy.NoCompression(handCluster()))
	S := float64(4 * elems)
	want := []time.Duration{
		at10GBps(3 * S / 4),     // RS: (k-1) steps of S/k
		at10GBps(2 * 3 * S / 4), // AR: 2(N-1) steps of (lanes*S/k)/N = S/4
		at10GBps(3 * S / 4),     // AG: (k-1) steps of the S/4 shard
	}
	if len(durs) != len(want) {
		t.Fatalf("%d jobs, want %d", len(durs), len(want))
	}
	for i := range want {
		if diff := durs[i] - want[i]; diff > time.Microsecond || diff < -time.Microsecond {
			t.Errorf("job %d: %v, want %v", i, durs[i], want[i])
		}
	}
}

// Flat allreduce over all 16 GPUs at the NIC share: 2*15*(S/16)/Bflat.
func TestChainFlatAllreduceHandMath(t *testing.T) {
	elems := 8 << 20 // 32 MB
	e := handEngine(t, elems)
	opt := strategy.Option{Steps: []strategy.Step{
		{Act: strategy.Comm, Routine: strategy.Allreduce, Scope: strategy.Flat},
	}}
	durs := chainDurations(t, e, opt)
	S := float64(4 * elems)
	bflat := 10e9 / 4 // NIC shared by 4 GPUs
	want := time.Duration(2 * 15 * (S / 16) / bflat * float64(time.Second))
	if diff := durs[0] - want; diff > time.Microsecond || diff < -time.Microsecond {
		t.Fatalf("flat allreduce: %v, want %v", durs[0], want)
	}
}

// Compressed inter-machine accounting: after the intra reduce-scatter,
// each of the 4 lanes compresses S/4 and the NIC allgathers
// lanes * wire(S/4) per step.
func TestChainCompressedInterHandMath(t *testing.T) {
	elems := 1 << 20
	m := model.Synthetic("hand", []int{elems}, []time.Duration{0}, 0)
	c := handCluster()
	spec := compress.Spec{ID: compress.EFSignSGD}
	cm, err := cost.NewModels(c, spec)
	if err != nil {
		t.Fatal(err)
	}
	e := New(m, c, cm)
	opt := strategy.Option{Hier: true, Steps: []strategy.Step{
		{Act: strategy.Comm, Routine: strategy.ReduceScatter, Scope: strategy.Intra},
		{Act: strategy.Comp},
		{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Inter, Compressed: true},
		{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Intra, Compressed: true, Second: true},
		{Act: strategy.Decomp},
	}}
	jobs, err := e.chainInto(0, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	// jobs: RS(intra), comp(gpu), AG*(inter), AG*(intra), decomp(gpu)
	if len(jobs) != 5 {
		t.Fatalf("%d jobs", len(jobs))
	}
	shardBytes := int64(4*elems) / 4
	wire := cm.WireBytes(shardBytes)

	wantInter := time.Duration(float64(3*(wire*4)) / 10e9 * float64(time.Second))
	if diff := jobs[2].dur - wantInter; diff > time.Microsecond || diff < -time.Microsecond {
		t.Errorf("inter AG*: %v, want %v (wire=%d)", jobs[2].dur, wantInter, wire)
	}
	// Intra second step gathers the shard's N=4 same-region payloads
	// from each lane: contribution = wire * copies(4).
	wantIntra := time.Duration(float64(3*(wire*4)) / 10e9 * float64(time.Second))
	if diff := jobs[3].dur - wantIntra; diff > time.Microsecond || diff < -time.Microsecond {
		t.Errorf("intra AG*2: %v, want %v", jobs[3].dur, wantIntra)
	}
	// Compression covers the shard only; decompression covers the full
	// tensor with 4 same-region copies.
	if jobs[1].dur != cm.CompressTime(cost.GPU, shardBytes) {
		t.Errorf("comp: %v, want %v", jobs[1].dur, cm.CompressTime(cost.GPU, shardBytes))
	}
	if jobs[4].dur != cm.DecompressTime(cost.GPU, int64(4*elems), 4) {
		t.Errorf("decomp: %v, want %v", jobs[4].dur, cm.DecompressTime(cost.GPU, int64(4*elems), 4))
	}
}

// CPU compression inserts staging transfers and scales host work by the
// number of active lanes.
func TestChainCPUStaging(t *testing.T) {
	elems := 1 << 20
	m := model.Synthetic("hand", []int{elems}, []time.Duration{0}, 0)
	c := handCluster()
	spec := compress.Spec{ID: compress.RandomK, Ratio: 0.01}
	cm, err := cost.NewModels(c, spec)
	if err != nil {
		t.Fatal(err)
	}
	e := New(m, c, cm)
	opt := strategy.Option{Hier: true, Steps: []strategy.Step{
		{Act: strategy.Comm, Routine: strategy.ReduceScatter, Scope: strategy.Intra},
		{Act: strategy.Comp, Dev: cost.CPU},
		{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Inter, Compressed: true},
		{Act: strategy.Decomp, Dev: cost.CPU},
		{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Intra, Second: true},
	}}
	jobs, err := e.chainInto(0, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	// RS, staging D2H, cpu comp, inter AG*, cpu decomp, staging H2D, AG.
	wantRes := []Resource{ResIntra, ResStaging, ResCPU, ResInter, ResCPU, ResStaging, ResIntra}
	if len(jobs) != len(wantRes) {
		t.Fatalf("%d jobs, want %d", len(jobs), len(wantRes))
	}
	for i, j := range jobs {
		if j.res != wantRes[i] {
			t.Fatalf("job %d on %v, want %v", i, j.res, wantRes[i])
		}
	}
	shard := int64(4*elems) / 4
	if jobs[1].dur != cm.StagingTime(shard) {
		t.Errorf("D2H staging %v, want %v", jobs[1].dur, cm.StagingTime(shard))
	}
	// Host compresses all 4 lanes' shards: the whole tensor.
	if jobs[2].dur != cm.CompressTime(cost.CPU, int64(4*elems)) {
		t.Errorf("cpu comp %v, want %v", jobs[2].dur, cm.CompressTime(cost.CPU, int64(4*elems)))
	}
}

// Free compression erases compression, decompression, and staging.
func TestChainFreeCompression(t *testing.T) {
	elems := 1 << 20
	m := model.Synthetic("hand", []int{elems}, []time.Duration{0}, 0)
	c := handCluster()
	cm, err := cost.NewModels(c, compress.Spec{ID: compress.DGC, Ratio: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	e := New(m, c, cm.WithFreeCompression())
	opt := strategy.Option{Steps: []strategy.Step{
		{Act: strategy.Comp, Dev: cost.CPU},
		{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Flat, Compressed: true},
		{Act: strategy.Decomp, Dev: cost.CPU},
	}}
	jobs, err := e.chainInto(0, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.res != ResGPU && j.res != ResInter && j.res != ResIntra {
			t.Fatalf("free compression placed work on %v", j.res)
		}
		if j.res == ResGPU && j.dur != 0 {
			t.Fatalf("free compression charged %v", j.dur)
		}
	}
}
