package timeline

import (
	"testing"
	"testing/quick"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/strategy"
)

// With a single tensor there is nothing to overlap with: the iteration
// time must equal forward + compute + the serial sum of the option's job
// durations, for every option in the space.
func TestSingleTensorSerializationIdentity(t *testing.T) {
	c := cluster.NVLinkTestbed(4)
	cm := cost.MustModels(c, compress.Spec{ID: compress.DGC, Ratio: 0.01})
	m := model.Synthetic("one", []int{4 << 20}, []time.Duration{3 * time.Millisecond}, 2*time.Millisecond)
	e := New(m, c, cm)
	e.RecordOps = false
	for _, opt := range strategy.Enumerate(c) {
		jobs, err := e.chainInto(0, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := m.Forward + m.Tensors[0].Compute
		for _, j := range jobs {
			want += j.dur
		}
		s := strategy.Uniform(1, opt)
		got, err := e.IterTime(s)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v: iter %v != serial sum %v", opt, got, want)
		}
	}
}

// Evaluation is deterministic: repeated runs of the same configuration
// produce bit-identical results, including operation spans.
func TestEvaluationDeterminism(t *testing.T) {
	c := cluster.PCIeTestbed(4)
	cm := cost.MustModels(c, compress.Spec{ID: compress.EFSignSGD})
	m := model.VGG16()
	opts := strategy.EnumerateGPU(c)
	s := strategy.Uniform(len(m.Tensors), strategy.NoCompression(c))
	for i := range s.PerTensor {
		s.PerTensor[i] = opts[i%len(opts)]
	}
	e := New(m, c, cm)
	r1, err := e.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Iter != r2.Iter || r1.Makespan != r2.Makespan {
		t.Fatalf("non-deterministic: %v vs %v", r1.Iter, r2.Iter)
	}
	if len(r1.Ops) != len(r2.Ops) {
		t.Fatalf("op counts differ: %d vs %d", len(r1.Ops), len(r2.Ops))
	}
	for i := range r1.Ops {
		if r1.Ops[i] != r2.Ops[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, r1.Ops[i], r2.Ops[i])
		}
	}
}

// Property: for random models and random per-tensor option assignments,
// the iteration time is bounded below by compute-only time and above by
// the fully serialized sum of all work.
func TestIterBoundsProperty(t *testing.T) {
	c := cluster.NVLinkTestbed(2)
	cm := cost.MustModels(c, compress.Spec{ID: compress.RandomK, Ratio: 0.01})
	opts := strategy.EnumerateGPU(c)

	prop := func(sizes []uint32, picks []uint16) bool {
		n := len(sizes)
		if n == 0 || n > 12 || len(picks) < n {
			return true
		}
		elems := make([]int, n)
		computes := make([]time.Duration, n)
		for i, raw := range sizes {
			elems[i] = 1 + int(raw%(1<<22))
			computes[i] = time.Duration(raw%3000) * time.Microsecond
		}
		m := model.Synthetic("rand", elems, computes, time.Millisecond)
		e := New(m, c, cm)
		e.RecordOps = false
		s := strategy.Uniform(n, strategy.NoCompression(c))
		var serial time.Duration = m.Forward + m.Backward()
		for i := 0; i < n; i++ {
			s.PerTensor[i] = opts[int(picks[i])%len(opts)]
			jobs, err := e.chainInto(i, s.PerTensor[i], nil)
			if err != nil {
				return false
			}
			for _, j := range jobs {
				serial += j.dur
			}
		}
		iter, err := e.IterTime(s)
		if err != nil {
			return false
		}
		return iter >= m.IterTime() && iter <= serial
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
