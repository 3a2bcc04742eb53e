package strategy

import (
	"strings"
	"testing"

	"espresso/internal/cluster"
	"espresso/internal/cost"
)

func nvlink8() *cluster.Cluster { return cluster.NVLinkTestbed(8) }

func TestEveryEnumeratedOptionIsValid(t *testing.T) {
	c := nvlink8()
	for _, o := range Enumerate(c) {
		if err := Check(o, c); err != nil {
			t.Errorf("%v: %v", o, err)
		}
	}
}

func TestEnumerationIsDeduplicated(t *testing.T) {
	c := nvlink8()
	seen := map[string]bool{}
	for _, o := range Enumerate(c) {
		k := o.Key()
		if seen[k] {
			t.Fatalf("duplicate option %v", o)
		}
		seen[k] = true
	}
}

// The search space per tensor is in the thousands, the scale §4.4.1
// reports (|C| = 4341 for the paper's exact tree). Shape count and
// concrete count are pinned to catch accidental enumeration changes.
func TestSearchSpaceScale(t *testing.T) {
	c := nvlink8()
	shapes := EnumerateGPU(c)
	full := Enumerate(c)
	if len(shapes) < 60 || len(shapes) > 150 {
		t.Errorf("shape count = %d, want tens of shapes", len(shapes))
	}
	if len(full) < 1000 || len(full) > 10000 {
		t.Errorf("|C| = %d, want thousands", len(full))
	}
	t.Logf("shapes=%d |C|=%d", len(shapes), len(full))
}

func TestSingleMachineHasNoHierOptions(t *testing.T) {
	single := cluster.NVLinkTestbed(1)
	for _, o := range Enumerate(single) {
		if o.Hier {
			t.Fatalf("single-machine cluster produced hierarchical option %v", o)
		}
	}
}

func TestGPUOnlySetCarriesNoCPU(t *testing.T) {
	for _, o := range EnumerateGPU(nvlink8()) {
		for _, d := range o.Devices() {
			if d != cost.GPU {
				t.Fatalf("C_gpu option %v uses %v", o, d)
			}
		}
	}
}

func TestEnumerateCoversAllDeviceCombos(t *testing.T) {
	c := nvlink8()
	// The flat compressed-indivisible shape has 2 compression ops, so 4
	// device assignments must appear.
	combos := map[string]bool{}
	for _, o := range Enumerate(c) {
		if o.Hier || len(o.Steps) != 3 || !o.Compressed() {
			continue
		}
		devs := o.Devices()
		if len(devs) == 2 {
			combos[devs[0].String()+devs[1].String()] = true
		}
	}
	if len(combos) != 4 {
		t.Fatalf("device combos = %v, want 4", combos)
	}
}

func TestCompressedAllreduceRejected(t *testing.T) {
	o := Option{Steps: []Step{comp(), comm(Allreduce, Flat, true), decomp()}}
	if err := Check(o, nvlink8()); err == nil {
		t.Fatal("compressed allreduce passed validation")
	}
}

func TestPairingRuleEnforced(t *testing.T) {
	// Alltoall must pair with Allgather, not Broadcast.
	o := Option{Steps: []Step{
		comp(), comm(Alltoall, Flat, true), decomp(),
		comm(Broadcast, Flat, false),
	}}
	if err := Check(o, nvlink8()); err == nil {
		t.Fatal("mispaired divisible scheme passed validation")
	}
}

func TestCheckCatchesCompressionStateErrors(t *testing.T) {
	c := nvlink8()
	cases := []Option{
		{},                              // empty
		{Steps: []Step{comp(), comp()}}, // double compress
		{Steps: []Step{decomp()}},       // decompress nothing
		{Steps: []Step{comp()}},         // ends compressed
		{Steps: []Step{comm(Allgather, Flat, true)}},              // compressed comm without comp
		{Hier: true, Steps: []Step{comm(Allreduce, Flat, false)}}, // flat scope in hier option
		{Steps: []Step{comm(Allreduce, Inter, false)}},            // inter scope in flat option
	}
	for i, o := range cases {
		if err := Check(o, c); err == nil {
			t.Errorf("case %d passed validation: %v", i, o)
		}
	}
}

func TestNoCompressionOption(t *testing.T) {
	hier := NoCompression(nvlink8())
	if !hier.Hier || hier.Compressed() {
		t.Fatalf("hier baseline = %v", hier)
	}
	if err := Check(hier, nvlink8()); err != nil {
		t.Fatal(err)
	}
	flat := NoCompression(cluster.NVLinkTestbed(1))
	if flat.Hier || len(flat.Steps) != 1 || flat.Steps[0].Routine != Allreduce {
		t.Fatalf("flat baseline = %v", flat)
	}
}

func TestWithDevice(t *testing.T) {
	var found Option
	for _, o := range EnumerateGPU(nvlink8()) {
		if o.Compressed() && o.CompOps() >= 2 {
			found = o
			break
		}
	}
	moved := found.WithDevice(cost.CPU)
	if !moved.AllOn(cost.CPU) {
		t.Fatalf("WithDevice(CPU) left GPU steps: %v", moved)
	}
	if found.AllOn(cost.CPU) {
		t.Fatal("WithDevice mutated the original option")
	}
	if !found.AllOn(cost.GPU) {
		t.Fatal("original option should be all-GPU")
	}
}

func TestAllOnUncompressedIsFalse(t *testing.T) {
	o := NoCompression(nvlink8())
	if o.AllOn(cost.GPU) || o.AllOn(cost.CPU) {
		t.Fatal("uncompressed option reports a compression device")
	}
}

func TestUniformStrategy(t *testing.T) {
	o := NoCompression(nvlink8())
	s := Uniform(5, o)
	if len(s.PerTensor) != 5 {
		t.Fatalf("len = %d", len(s.PerTensor))
	}
	if s.CompressedCount() != 0 {
		t.Fatal("uncompressed uniform strategy reports compressed tensors")
	}
	c := s.Clone()
	c.PerTensor[0] = Option{Steps: []Step{comp(), comm(Allgather, Flat, true), decomp()}}
	if s.PerTensor[0].Compressed() {
		t.Fatal("Clone shares the option slice")
	}
	if c.CompressedCount() != 1 {
		t.Fatal("CompressedCount wrong after assignment")
	}
}

func TestOptionStringsAreReadable(t *testing.T) {
	o := Option{Hier: true, Steps: []Step{
		comm(ReduceScatter, Intra, false),
		comp(),
		comm(Allgather, Inter, true),
		decomp(),
		comm(Allgather, Intra, false),
	}}
	s := o.String()
	for _, want := range []string{"hier|", "intra.reduce-scatter", "comp(GPU)", "inter.allgather*", "decomp(GPU)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestHierOptionsIncludeIntraCompression(t *testing.T) {
	// Espresso's key differentiator vs HiPress/BytePS-Compress: options
	// that compress intra-machine communication exist in the space.
	found := false
	for _, o := range EnumerateGPU(nvlink8()) {
		if !o.Hier {
			continue
		}
		for _, s := range o.Steps {
			if s.Act == Comm && s.Scope == Intra && s.Compressed {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no hierarchical option compresses intra-machine communication")
	}
}

func TestCompOpsCount(t *testing.T) {
	o := Option{Steps: []Step{
		comp(), comm(Alltoall, Flat, true), decomp(),
		comp(), comm(Allgather, Flat, true), decomp(),
	}}
	if o.CompOps() != 4 {
		t.Fatalf("CompOps = %d, want 4", o.CompOps())
	}
}
