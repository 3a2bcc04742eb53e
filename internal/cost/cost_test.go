package cost

import (
	"testing"
	"testing/quick"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/compress"
)

var testLink = Link{Alpha: 10 * time.Microsecond, Bps: 10e9}

func TestCollectivesDegenerateWithOneNode(t *testing.T) {
	l := testLink
	if l.Allreduce(1, 1<<20) != 0 || l.Allgather(1, 1<<20) != 0 ||
		l.Alltoall(1, 1<<20) != 0 || l.Broadcast(1, 1<<20) != 0 ||
		l.Reduce(1, 1<<20) != 0 || l.ReduceScatter(1, 1<<20) != 0 ||
		l.Gather(1, 1<<20) != 0 {
		t.Fatal("single-node collectives must be free")
	}
}

func TestAllreduceEqualsRSPlusAG(t *testing.T) {
	l := testLink
	for _, n := range []int{2, 4, 8, 64} {
		s := int64(100 << 20)
		ar := l.Allreduce(n, s)
		composed := l.ReduceScatter(n, s) + l.Allgather(n, s/int64(n))
		diff := ar - composed
		if diff < 0 {
			diff = -diff
		}
		// The shard sizes differ only by integer division remainder.
		if diff > ar/100 {
			t.Errorf("n=%d: allreduce %v != RS+AG %v", n, ar, composed)
		}
	}
}

// The ring allreduce time approaches 2*s/B as n grows — the bandwidth
// optimality property.
func TestAllreduceBandwidthOptimal(t *testing.T) {
	l := Link{Alpha: 0, Bps: 10e9}
	s := int64(1 << 30)
	ideal := time.Duration(2 * float64(s) / l.Bps * float64(time.Second))
	got := l.Allreduce(1024, s)
	if got < ideal*99/100 || got > ideal*101/100 {
		t.Fatalf("allreduce(1024) = %v, want ~%v", got, ideal)
	}
}

// Allgather of full compressed tensors grows linearly with n — the reason
// compressed traffic eventually loses to allreduce at scale (§3.1).
func TestAllgatherTrafficGrowsWithN(t *testing.T) {
	l := testLink
	c := int64(1 << 20)
	t8, t16 := l.Allgather(8, c), l.Allgather(16, c)
	if t16 <= t8 {
		t.Fatalf("allgather(16)=%v should exceed allgather(8)=%v", t16, t8)
	}
	ratio := float64(t16) / float64(t8)
	if ratio < 2.0 || ratio > 2.3 {
		t.Fatalf("allgather scaling ratio = %v, want ~15/7", ratio)
	}
}

func TestAlltoallCheaperThanAllgather(t *testing.T) {
	l := testLink
	c := int64(8 << 20)
	for _, n := range []int{4, 8, 64} {
		if l.Alltoall(n, c) >= l.Allgather(n, c) {
			t.Errorf("n=%d: alltoall %v should be cheaper than allgather %v",
				n, l.Alltoall(n, c), l.Allgather(n, c))
		}
	}
}

// Property: every collective is monotone in payload size.
func TestCollectiveMonotonicityProperty(t *testing.T) {
	l := testLink
	fns := []func(int, int64) time.Duration{
		l.Allreduce, l.ReduceScatter, l.Allgather, l.Alltoall,
		l.Reduce, l.Broadcast, l.Gather,
	}
	prop := func(aRaw, bRaw uint32, nRaw uint8) bool {
		a, b := int64(aRaw), int64(bRaw)
		if a > b {
			a, b = b, a
		}
		n := 2 + int(nRaw)%63
		for _, f := range fns {
			if f(n, a) > f(n, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// GPU compression is typically faster than CPU compression (§3) — pinned
// for RandomK, whose selection kernel parallelizes trivially. The paper's
// own Table 1 shows CPU compression can win for specific algorithms
// (BERT's CPU entry beats its GPU entry), so this is not asserted
// universally; instead every algorithm's CPU profile must stay within a
// sane band of its GPU profile.
func TestModelsDeviceProfiles(t *testing.T) {
	s := int64(64 << 20)
	m := MustModels(cluster.NVLinkTestbed(8), compress.Spec{ID: compress.RandomK, Ratio: 0.01})
	if m.CompressTime(GPU, s) >= m.CompressTime(CPU, s) {
		t.Fatalf("GPU RandomK %v should beat CPU %v",
			m.CompressTime(GPU, s), m.CompressTime(CPU, s))
	}
	for _, id := range []compress.ID{compress.RandomK, compress.DGC, compress.TopK, compress.EFSignSGD} {
		spec := compress.Spec{ID: id, Ratio: 0.01}
		mm := MustModels(cluster.NVLinkTestbed(8), spec)
		gpu, cpu := mm.CompressTime(GPU, s), mm.CompressTime(CPU, s)
		if cpu > 40*gpu || gpu > 40*cpu {
			t.Errorf("%v: device profiles implausibly far apart: GPU %v, CPU %v", id, gpu, cpu)
		}
	}
}

func TestFP32CompressionIsFree(t *testing.T) {
	m := MustModels(cluster.NVLinkTestbed(8), compress.Spec{ID: compress.FP32})
	if m.CompressTime(GPU, 1<<30) != 0 || m.CompressTime(CPU, 1<<30) != 0 {
		t.Fatal("FP32 passthrough must cost nothing")
	}
	if m.DecompressTime(GPU, 1<<30, 4) != 0 {
		t.Fatal("FP32 decompression must cost nothing")
	}
}

// Figure 10's premise: the ratio of saved communication time to incurred
// GPU compression time increases with tensor size, because of the fixed
// kernel-launch overhead.
func TestBenefitRatioIncreasesWithSize(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	m := MustModels(c, compress.Spec{ID: RandomKSpec.ID, Ratio: RandomKSpec.Ratio})
	prev := -1.0
	for _, bytes := range []int64{64 << 10, 1 << 20, 16 << 20, 256 << 20} {
		saved := m.Inter.Allreduce(c.Machines, bytes) - m.Inter.Allgather(c.Machines, m.WireBytes(bytes))
		cost := m.CompressTime(GPU, bytes) + m.DecompressTime(GPU, bytes, c.Machines)
		ratio := float64(saved) / float64(cost)
		if ratio <= prev {
			t.Fatalf("benefit ratio not increasing at %d bytes: %v <= %v", bytes, ratio, prev)
		}
		prev = ratio
	}
}

func TestDecompressTimeGrowsWithCopies(t *testing.T) {
	m := MustModels(cluster.NVLinkTestbed(8), compress.Spec{ID: compress.EFSignSGD})
	if m.DecompressTime(GPU, 1<<20, 8) <= m.DecompressTime(GPU, 1<<20, 2) {
		t.Fatal("decompressing more payloads should take longer")
	}
	if m.DecompressTime(GPU, 1<<20, 0) != 0 {
		t.Fatal("zero copies should be free")
	}
}

// A slowed GPU stretches everything the GPU runs — forward and backward
// compute as well as compression — and nothing the host runs.
func TestDeviceScaleSlowsGPUWorkOnly(t *testing.T) {
	m := MustModels(cluster.NVLinkTestbed(8), compress.Spec{ID: compress.DGC, Ratio: 0.01})
	slow, err := m.WithDeviceScale(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	const s, d = int64(16 << 20), 3 * time.Millisecond
	if m.ComputeTime(d) != d || slow.ComputeTime(d) != 2*d {
		t.Errorf("compute %v: healthy %v, GPU x2 %v", d, m.ComputeTime(d), slow.ComputeTime(d))
	}
	if got, want := slow.CompressTime(GPU, s), 2*m.CompressTime(GPU, s); got != want {
		t.Errorf("GPU compression x2 = %v, want %v", got, want)
	}
	if got, want := slow.DecompressTime(GPU, s, 4), 2*m.DecompressTime(GPU, s, 4); got != want {
		t.Errorf("GPU decompression x2 = %v, want %v", got, want)
	}
	if slow.CompressTime(CPU, s) != m.CompressTime(CPU, s) || slow.DecompressTime(CPU, s, 4) != m.DecompressTime(CPU, s, 4) ||
		slow.StagingTime(s) != m.StagingTime(s) {
		t.Error("a slowed GPU changed host compression or staging")
	}
	if slow.Profile(GPU).Scale != 2 || slow.Profile(CPU).Scale != 1 {
		t.Errorf("profile scales %v/%v, want 2/1", slow.Profile(GPU).Scale, slow.Profile(CPU).Scale)
	}
	if _, err := m.WithDeviceScale(0.5, 1); err == nil {
		t.Error("a device scale below 1 was accepted")
	}
}

func TestFreeCompressionIsACopy(t *testing.T) {
	m := MustModels(cluster.NVLinkTestbed(8), compress.Spec{ID: compress.DGC, Ratio: 0.01})
	if free := m.WithFreeCompression(); !free.FreeCompression() || m.FreeCompression() {
		t.Fatalf("free %v, original %v: want only the copy free", free.FreeCompression(), m.FreeCompression())
	}
}

func TestStagingTime(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	m := MustModels(c, compress.Spec{ID: compress.EFSignSGD})
	got := m.StagingTime(int64(c.PCIeHostBandwidth))
	if got < 990*time.Millisecond || got > 1010*time.Millisecond {
		t.Fatalf("staging a bandwidth-second of bytes = %v, want ~1s", got)
	}
	if m.StagingTime(0) != 0 {
		t.Fatal("zero bytes should stage for free")
	}
}

func TestWireBytesAndRatio(t *testing.T) {
	m := MustModels(cluster.NVLinkTestbed(8), compress.Spec{ID: compress.DGC, Ratio: 0.01})
	if r := m.Ratio(); r < 0.019 || r > 0.022 {
		t.Fatalf("DGC ratio = %v, want ~0.02", r)
	}
	msign := MustModels(cluster.NVLinkTestbed(8), compress.Spec{ID: compress.EFSignSGD})
	if r := msign.Ratio(); r < 0.031 || r > 0.033 {
		t.Fatalf("EFSignSGD ratio = %v, want ~1/32", r)
	}
}

func TestNewModelsValidates(t *testing.T) {
	bad := cluster.NVLinkTestbed(8)
	bad.Machines = 0
	if _, err := NewModels(bad, compress.Spec{ID: compress.FP32}); err == nil {
		t.Error("invalid cluster accepted")
	}
	if _, err := NewModels(cluster.NVLinkTestbed(8), compress.Spec{ID: compress.DGC, Ratio: 0}); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestFlatLinkUsesNICShare(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	m := MustModels(c, compress.Spec{ID: compress.FP32})
	want := c.InterBandwidth / float64(c.GPUsPerMachine)
	if m.Flat.Bps != want {
		t.Fatalf("flat bps = %v, want %v", m.Flat.Bps, want)
	}
	single := cluster.NVLinkTestbed(1)
	ms := MustModels(single, compress.Spec{ID: compress.FP32})
	if ms.Flat.Bps != single.IntraBandwidth {
		t.Fatal("single machine flat link should use intra bandwidth")
	}
}

// RandomKSpec is a convenience used by several cost tests.
var RandomKSpec = compress.Spec{ID: compress.RandomK, Ratio: 0.01}
