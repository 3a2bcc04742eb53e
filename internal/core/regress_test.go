package core

import (
	"slices"
	"strings"
	"testing"
	"time"

	"espresso/internal/baselines"
	"espresso/internal/cluster"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
)

// SelectAllCompressed used to panic (nil seed strategy) when the
// candidate set contained no compressed option; it must report a
// descriptive error instead.
func TestSelectAllCompressedNoCompressedCandidates(t *testing.T) {
	c := cluster.NVLinkTestbed(4)
	m := commBound()
	cm := cost.MustModels(c, dgc())
	sel := NewSelector(m, c, cm)
	sel.SetCandidates([]strategy.Option{strategy.NoCompression(c)})
	_, _, err := sel.SelectAllCompressed()
	if err == nil {
		t.Fatal("want error for candidate set without compressed options, got nil")
	}
	if !strings.Contains(err.Error(), "compressed") {
		t.Errorf("error %q should mention the missing compressed options", err)
	}
}

// Report.OffloadSearch must be the true Algorithm 2 space prod(|G_i|+1),
// not the partial product at which the exact-search cap tripped. With 17
// single-tensor groups the space is 2^17; the old early-break reported
// the first partial product past the cap (2^16) instead.
func TestOffloadSearchReportsFullSpace(t *testing.T) {
	c := cluster.NVLinkTestbed(4)
	const n = 17
	sizes := make([]int, n)
	comp := make([]time.Duration, n)
	for i := range sizes {
		sizes[i] = 1<<20 + i*4096 // distinct sizes → one group per tensor
		comp[i] = time.Millisecond
	}
	m := model.Synthetic("offload-space", sizes, comp, time.Millisecond)
	cm := cost.MustModels(c, dgc())
	sel := NewSelector(m, c, cm)
	s := strategy.Uniform(n, baselines.InterCompressed(c, cost.GPU))
	rep := &Report{}
	if _, err := sel.OffloadCPU(s, rep); err != nil {
		t.Fatal(err)
	}
	if want := 1 << n; rep.OffloadSearch != want {
		t.Errorf("OffloadSearch = %d, want the full product %d", rep.OffloadSearch, want)
	}
	if rep.OffloadSearch <= MaxOffloadSearch {
		t.Fatalf("test must exercise the greedy fallback: space %d <= cap %d", rep.OffloadSearch, MaxOffloadSearch)
	}
}

// SelectionTime is stamped after every timed sub-phase, so the breakdown
// can never exceed the total.
func TestSelectionTimingBreakdown(t *testing.T) {
	c := cluster.NVLinkTestbed(4)
	m := commBound()
	cm := cost.MustModels(c, dgc())
	sel := NewSelector(m, c, cm)
	_, rep, err := sel.Select()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SelectionTime <= 0 || rep.Alg1Time <= 0 {
		t.Fatalf("timings must be positive: selection=%v alg1=%v", rep.SelectionTime, rep.Alg1Time)
	}
	if rep.OffloadTime < 0 {
		t.Fatalf("offload time negative: %v", rep.OffloadTime)
	}
	if sum := rep.Alg1Time + rep.OffloadTime; rep.SelectionTime < sum {
		t.Errorf("SelectionTime %v < Alg1Time+OffloadTime %v — total stamped before the final evaluation",
			rep.SelectionTime, sum)
	}
}

// candidatesFor caches deduped option lists per tensor size
// (dedupBySize), which is only sound if the chain signature depends on
// nothing but the tensor's size. Verify across every paper model and
// every enumerated option: same-size tensors always induce the same
// chain.
func TestChainKeyDependsOnlyOnTensorSize(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	cm := cost.MustModels(c, dgc())
	opts := strategy.Enumerate(c)
	if len(opts) == 0 {
		t.Fatal("no enumerated options")
	}
	for _, m := range model.All() {
		eng := timeline.New(m, c, cm)
		bySize := make(map[int][]int)
		for i, ten := range m.Tensors {
			bySize[ten.Elems] = append(bySize[ten.Elems], i)
		}
		for _, opt := range opts {
			for _, group := range bySize {
				want, err := eng.AppendChainSig(group[0], opt, nil)
				if err != nil {
					t.Fatalf("%s: %v", m.Name, err)
				}
				for _, idx := range group[1:] {
					got, err := eng.AppendChainSig(idx, opt, nil)
					if err != nil {
						t.Fatalf("%s: %v", m.Name, err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s: option %s: tensors %d and %d share size %d but chains differ:\n%v\nvs\n%v",
							m.Name, opt, group[0], idx, m.Tensors[idx].Elems, want, got)
					}
				}
			}
		}
	}
}
